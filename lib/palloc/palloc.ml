module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Timing_config = Nvmpi_cachesim.Timing_config
module Metrics = Nvmpi_obs.Metrics
module Bitops = Nvmpi_addr.Bitops
module Vaddr = Nvmpi_addr.Kinds.Vaddr

(* Recoverable size-class allocator. Every persistent link or field is
   an offset from [lo] (0 = null: nothing lives at offset 0, the
   superblock magic does), so the heap is position independent, like
   {!Nvmpi_alloc.Freelist}.

   What is durable and what is not (docs/ALLOC.md):
   - durable, with explicit clwb+fence ordering: the per-block state
     (large-block header tags/sizes, small-block state words), the
     single-slot operation log, and the root cells;
   - volatile by design: the free-list links and heads, and the merged
     sizes of coalesced blocks. Crash recovery never reads them —
     {!recover} rebuilds every list from a physical sweep of the block
     headers — so ordinary list surgery needs no flushes. A clean
     {!close} makes them durable (it flushes every line such a store
     wrote since palloc last flushed it) before it marks the log
     [closed]; {!recover} trusts the lists only under that mark.

   Each mutating operation follows the commit-record discipline the
   object store's undo log uses: write the log payload, flush, fence;
   write the log state word, flush, fence; apply the effects, flush,
   fence; clear the state word, flush, fence. A crash with the log
   armed rolls allocations back and frees forward; either way the
   effects are a consistent physical tiling at every intermediate
   durable state (splits publish the tail header with its own fence
   before the shrunken size, slabs format their contents before the
   tag that publishes them). *)

type t = {
  mem : Memsim.t;
  timing : Timing.t;
  lo : int;
  hi : int;
  line : int;
  line_bits : int;
  mutable frag : int; (* free small payload bytes, mirrored to c_frag *)
  dirty : Bytes.t;
      (* one bit per heap line (from the line holding [lo]): a volatile
         list store wrote it since palloc last flushed it *)
  mutable closed : bool;
  c_allocs : int ref;
  c_frees : int ref;
  c_splits : int ref;
  c_refills : int ref;
  c_pushes : int ref;
  c_recovered : int ref;
  c_frag : int ref;
}

exception Out_of_memory of { requested : int; free : int }
exception Corrupted of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupted s)) fmt

(* {1 Layout} *)

let magic = 0x50414C4C4F433031 land ((1 lsl 62) - 1) (* "PALLOC01" truncated *)
let version = 1
let class_sizes = [| 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 |]
let nclasses = Array.length class_sizes
let max_small = class_sizes.(nclasses - 1)

(* Superblock field offsets. *)
let o_magic = 0
let o_version = 8
let o_size = 16
let o_heads = 32 (* nclasses cells: payload offset of first free block *)
let o_large = o_heads + (8 * nclasses) (* header offset of first free block *)
let o_log_state = o_large + 8
let o_log_aux = o_log_state + 8
let o_log_block = o_log_aux + 8
let o_log_dest = o_log_block + 8
let roots = 16
let o_roots = o_log_dest + 8
let superblock_bytes = o_roots + (8 * roots)
let min_range = 512

(* Large-block headers: 16 bytes, [size | tag], sizes include the
   header and are multiples of 16. *)
let header_bytes = 16
let tag_free = 0
let tag_large = 1
let tag_slab c = 2 lor (c lsl 8)
let is_slab_tag tag = tag land 0xFF = 2
let slab_class tag = (tag lsr 8) land 0xFF
let min_large_block = 32

(* Small blocks: an 8-byte state word then the class-sized payload.
   Bit 16 marks the word as a small-block state (no large-block tag has
   it), bits 8-15 carry the class, bit 0 the allocated flag. *)
let sm_mark = 1 lsl 16
let sm_word c ~alloc = sm_mark lor (c lsl 8) lor (if alloc then 1 else 0)
let sm_is w = w land sm_mark <> 0
let sm_class w = (w lsr 8) land 0xFF
let sm_alloc w = w land 1 <> 0

(* Slabs carve ~4 KiB of payload per refill (at least 4 blocks for the
   big classes). *)
let slab_blocks c = max 4 (4096 / (8 + class_sizes.(c)))

(* Log states. [op_closed] is no operation: {!close} leaves it, with
   the free-small-payload count in the aux word, to say the lists are
   durable. *)
let op_idle = 0
let op_alloc_small = 1
let op_alloc_large = 2
let op_free_small = 3
let op_free_large = 4
let op_closed = 5

let align16 n = Bitops.align_up n 16

(* {1 Accessors (offset world)} *)

let abs t off = Vaddr.v (t.lo + off)
let get64 t off = Memsim.load64 t.mem (abs t off)
let set64 t off v = Memsim.store64 t.mem (abs t off) v
let heap_size t = t.hi - t.lo
let data_lo = superblock_bytes
let data_hi t = data_lo + ((heap_size t - data_lo) land lnot 15)

(* Sets ([on]) or clears the [t.dirty] bit of the line holding absolute
   address [a]. *)
let mark t a on =
  let i = (a lsr t.line_bits) - (t.lo lsr t.line_bits) in
  let byte = Char.code (Bytes.get t.dirty (i lsr 3)) in
  let bit = 1 lsl (i land 7) in
  Bytes.set t.dirty (i lsr 3)
    (Char.chr (if on then byte lor bit else byte land lnot bit))

(* A volatile list store: a head, a link or a merged size. Its line is
   noted for {!close}, which must make it durable. *)
let set_list t off v =
  set64 t off v;
  mark t (t.lo + off) true

let get_size t b = get64 t b
let set_size t b v = set64 t b v
let get_tag t b = get64 t (b + 8)
let set_tag t b v = set64 t (b + 8) v
let get_head t c = get64 t (o_heads + (8 * c))
let set_head t c v = set_list t (o_heads + (8 * c)) v
let get_large t = get64 t o_large
let set_large t v = set_list t o_large v
let root_cell i = o_roots + (8 * i)

(* {1 Persistence primitives} *)

(* Every flush here is fenced before the operation returns, so a line
   it flushes needs no flush at {!close} until a list store dirties it
   again. *)
let flush_range t off len =
  let first = (t.lo + off) land lnot (t.line - 1) in
  let last = (t.lo + off + len - 1) land lnot (t.line - 1) in
  let a = ref first in
  while !a <= last do
    Timing.flush t.timing ~addr:!a;
    mark t !a false;
    a := !a + t.line
  done

let fence t = Timing.fence t.timing

let log_arm t ~op ~aux ~block ~dest =
  set64 t o_log_aux aux;
  set64 t o_log_block block;
  set64 t o_log_dest dest;
  flush_range t o_log_aux 24;
  fence t;
  set64 t o_log_state op;
  flush_range t o_log_state 8;
  fence t

let log_disarm t =
  set64 t o_log_state op_idle;
  flush_range t o_log_state 8;
  fence t

let gauge t = t.c_frag := t.frag

(* {1 Validation helpers} *)

let block_ok t b = b >= data_lo && b + min_large_block <= data_hi t && b land 15 = 0

let validate_block t b ctx =
  if not (block_ok t b) then corrupt "%s: bad block offset 0x%x" ctx b;
  let size = get_size t b in
  if size < min_large_block || b + size > data_hi t || size land 15 <> 0 then
    corrupt "%s: bad block size %d at 0x%x" ctx size b

(* {1 The large (coalescing first-fit) path}

   The free list is address-ordered; the link lives in the free block's
   first payload word (header + 16). *)

let get_link t b = get64 t (b + header_bytes)
let set_link t b v = set_list t (b + header_bytes) v

let set_large_link t prev v =
  if prev = 0 then set_large t v else set_link t prev v

let large_free_bytes t =
  let rec go cur acc =
    if cur = 0 then acc else go (get_link t cur) (acc + get_size t cur - header_bytes)
  in
  go (get_large t) 0

(* First fit; returns [(prev, cur)] with [prev = 0] when [cur] is the
   list head. *)
let find_fit t need =
  let rec find prev cur =
    if cur = 0 then
      raise (Out_of_memory { requested = need; free = large_free_bytes t })
    else begin
      validate_block t cur "alloc";
      if get_tag t cur <> tag_free then
        corrupt "alloc: block 0x%x on the large free list is not free" cur;
      if get_size t cur >= need then (prev, cur) else find cur (get_link t cur)
    end
  in
  find 0 (get_large t)

(* Split [b]: durably publish the tail header with its own fence before
   the shrunken size becomes durable, so a walk at any intermediate
   durable state sees either the whole block or two adjacent free
   blocks — never a size pointing into unformatted bytes. The caller's
   next group (which commits [b]'s new size and tag) provides the
   second fence. *)
let write_tail t b ~need ~size =
  let tail = b + need in
  set_size t tail (size - need);
  set_tag t tail tag_free;
  flush_range t tail header_bytes;
  fence t

(* Allocate a large block. [dest] (a superblock cell offset, 0 = none)
   is published under the same fence as the commit so the log resolves
   both together. Returns the header offset. *)
let alloc_large t n ~dest =
  let need = align16 (max n header_bytes) + header_bytes in
  let prev, b = find_fit t need in
  let size = get_size t b in
  let next = get_link t b in
  let split = size - need >= min_large_block in
  log_arm t ~op:op_alloc_large ~aux:need ~block:b ~dest;
  if split then write_tail t b ~need ~size;
  if split then set_size t b need;
  set_tag t b tag_large;
  flush_range t b header_bytes;
  if dest <> 0 then begin
    set64 t dest (b + header_bytes);
    flush_range t dest 8
  end;
  fence t;
  log_disarm t;
  (* Volatile list surgery: the tail (if any) takes [b]'s place. *)
  if split then begin
    set_link t (b + need) next;
    set_large_link t prev (b + need);
    incr t.c_splits
  end
  else set_large_link t prev next;
  incr t.c_allocs;
  b

let free_large t b ~dest =
  log_arm t ~op:op_free_large ~aux:0 ~block:b ~dest;
  set_tag t b tag_free;
  flush_range t (b + 8) 8;
  if dest <> 0 then begin
    set64 t dest 0;
    flush_range t dest 8
  end;
  fence t;
  log_disarm t;
  (* Volatile: address-ordered insert, then physical coalescing. The
     merged sizes are plain stores: any subset of them becoming durable
     (via a stray same-line flush) only grows a free block over its
     free neighbour, which the recovery sweep re-merges anyway. *)
  let rec find_spot prev cur =
    if cur = 0 || cur > b then (prev, cur) else find_spot cur (get_link t cur)
  in
  let prev, next = find_spot 0 (get_large t) in
  set_link t b next;
  set_large_link t prev b;
  if next <> 0 && b + get_size t b = next then begin
    set_list t b (get_size t b + get_size t next);
    set_link t b (get_link t next)
  end;
  if prev <> 0 && prev + get_size t prev = b then begin
    set_list t prev (get_size t prev + get_size t b);
    set_link t prev (get_link t b)
  end;
  incr t.c_frees;
  incr t.c_pushes

(* {1 The small (size-class slab) path} *)

let class_of n =
  let rec go i = if class_sizes.(i) >= n then i else go (i + 1) in
  go 0

(* Carve a fresh slab for class [c] out of the large path. No log slot
   is needed: the contents (tail header, shrunken size, every state
   word) are formatted and fenced first, and the slab tag is the single
   commit record — until its fence retires, a walk sees a free block;
   after it, a fully formatted slab. *)
let refill t c =
  let cs = class_sizes.(c) in
  let stride = 8 + cs in
  let need = align16 (header_bytes + (slab_blocks c * stride)) in
  let prev, b = find_fit t need in
  let size = get_size t b in
  let next = get_link t b in
  let split = size - need >= min_large_block in
  if split then write_tail t b ~need ~size;
  let eff = if split then need else size in
  if split then set_size t b need;
  flush_range t b 8;
  let count = (eff - header_bytes) / stride in
  for i = 0 to count - 1 do
    let w = b + header_bytes + (i * stride) in
    set64 t w (sm_word c ~alloc:false);
    flush_range t w 8
  done;
  fence t;
  set_tag t b (tag_slab c);
  flush_range t (b + 8) 8;
  fence t;
  (* Volatile: unlink from the large list, push every block (descending
     address, so the class list ascends). *)
  if split then begin
    set_link t (b + need) next;
    set_large_link t prev (b + need);
    incr t.c_splits
  end
  else set_large_link t prev next;
  for i = count - 1 downto 0 do
    let p = b + header_bytes + (i * stride) + 8 in
    set_list t p (get_head t c);
    set_head t c p
  done;
  t.frag <- t.frag + (count * cs);
  incr t.c_refills;
  t.c_pushes := !(t.c_pushes) + count

let alloc_small t c ~dest =
  if get_head t c = 0 then refill t c;
  let p = get_head t c in
  let w = p - 8 in
  log_arm t ~op:op_alloc_small ~aux:c ~block:p ~dest;
  set_head t c (get64 t p);
  set64 t w (sm_word c ~alloc:true);
  flush_range t w 8;
  if dest <> 0 then begin
    set64 t dest p;
    flush_range t dest 8
  end;
  fence t;
  log_disarm t;
  t.frag <- t.frag - class_sizes.(c);
  incr t.c_allocs;
  gauge t;
  p

let free_small t p c ~dest =
  log_arm t ~op:op_free_small ~aux:c ~block:p ~dest;
  set64 t (p - 8) (sm_word c ~alloc:false);
  flush_range t (p - 8) 8;
  if dest <> 0 then begin
    set64 t dest 0;
    flush_range t dest 8
  end;
  fence t;
  log_disarm t;
  set_list t p (get_head t c);
  set_head t c p;
  t.frag <- t.frag + class_sizes.(c);
  incr t.c_frees;
  incr t.c_pushes;
  gauge t

(* {1 Payload classification} *)

(* The word right before a payload tells the two paths apart: small
   state words carry [sm_mark]; a large block's preceding word is its
   header tag. *)
let classify t off ctx =
  if off <= data_lo || off >= data_hi t || off land 7 <> 0 then
    corrupt "%s: 0x%x is not a payload offset" ctx off;
  let w = get64 t (off - 8) in
  if sm_is w then begin
    let c = sm_class w in
    if c >= nclasses then corrupt "%s: bad class %d at 0x%x" ctx c off;
    `Small (c, sm_alloc w)
  end
  else if w = tag_large then `Large (off - header_bytes)
  else if w = tag_free then
    corrupt "%s: block 0x%x is not allocated (double free?)" ctx off
  else corrupt "%s: 0x%x is not a payload offset" ctx off

let check_open t ctx =
  if t.closed then invalid_arg (Printf.sprintf "Palloc.%s: heap is closed" ctx)

let free_off t off ~dest =
  check_open t "free";
  match classify t off "free" with
  | `Small (_, false) ->
      corrupt "free: block 0x%x is not allocated (double free?)" off
  | `Small (c, true) -> free_small t off c ~dest
  | `Large b ->
      validate_block t b "free";
      free_large t b ~dest

(* {1 Public allocation API} *)

let alloc_off t n ~dest =
  check_open t "alloc";
  if n <= 0 then invalid_arg "Palloc.alloc: non-positive size";
  if n <= max_small then alloc_small t (class_of n) ~dest
  else begin
    let b = alloc_large t n ~dest in
    b + header_bytes
  end

let alloc t n =
  let p = alloc_off t n ~dest:0 in
  gauge t;
  abs t p

let free t (payload : Vaddr.t) =
  let off = (payload :> int) - t.lo in
  free_off t off ~dest:0;
  gauge t

let check_root i ctx =
  if i < 0 || i >= roots then
    invalid_arg (Printf.sprintf "Palloc.%s: root %d out of range" ctx i)

let root_get t i =
  check_root i "root_get";
  get64 t (root_cell i)

let root_addr t i =
  check_root i "root_addr";
  abs t (root_cell i)

let alloc_into t ~root n =
  check_root root "alloc_into";
  if root_get t root <> 0 then
    invalid_arg (Printf.sprintf "Palloc.alloc_into: root %d occupied" root);
  let p = alloc_off t n ~dest:(root_cell root) in
  gauge t;
  abs t p

let free_from t ~root =
  check_root root "free_from";
  let p = root_get t root in
  if p = 0 then corrupt "free_from: root %d is empty" root;
  free_off t p ~dest:(root_cell root);
  gauge t

let usable_size t (payload : Vaddr.t) =
  let off = (payload :> int) - t.lo in
  match classify t off "usable_size" with
  | `Small (_, false) -> corrupt "usable_size: block 0x%x is not allocated" off
  | `Small (c, true) -> class_sizes.(c)
  | `Large b ->
      validate_block t b "usable_size";
      get_size t b - header_bytes

let payload_of_offset t off =
  match classify t off "payload_of_offset" with
  | `Small _ | `Large _ -> abs t off

(* {1 Physical walk} *)

(* Visit every block: [f ~off ~size ~free ~small]; [off] is the payload
   offset, [size] the usable payload bytes. *)
let walk t f =
  let hi = data_hi t in
  let b = ref data_lo in
  while !b < hi do
    validate_block t !b "walk";
    let size = get_size t !b in
    let tag = get_tag t !b in
    if tag = tag_free then f ~off:(!b + header_bytes) ~size:(size - header_bytes) ~free:true ~small:false
    else if tag = tag_large then
      f ~off:(!b + header_bytes) ~size:(size - header_bytes) ~free:false ~small:false
    else if is_slab_tag tag then begin
      let c = slab_class tag in
      if c >= nclasses then corrupt "walk: bad slab class %d at 0x%x" c !b;
      let cs = class_sizes.(c) in
      let stride = 8 + cs in
      let count = (size - header_bytes) / stride in
      for i = 0 to count - 1 do
        let w_off = !b + header_bytes + (i * stride) in
        let w = get64 t w_off in
        if not (sm_is w) || sm_class w <> c then
          corrupt "walk: bad state word 0x%x at 0x%x (slab 0x%x)" w w_off !b;
        f ~off:(w_off + 8) ~size:cs ~free:(not (sm_alloc w)) ~small:true
      done
    end
    else corrupt "walk: bad tag 0x%x at 0x%x" tag !b;
    b := !b + size
  done;
  if !b <> hi then corrupt "walk: heap walk ended at 0x%x, expected 0x%x" !b hi

let iter_blocks t f =
  walk t (fun ~off ~size ~free ~small:_ -> f ~addr:(abs t off) ~size ~free)

let free_bytes t =
  let n = ref 0 in
  walk t (fun ~off:_ ~size ~free ~small:_ -> if free then n := !n + size);
  !n

let frag_bytes t =
  let n = ref 0 in
  walk t (fun ~off:_ ~size ~free ~small -> if free && small then n := !n + size);
  !n

let block_count t =
  let a = ref 0 and f = ref 0 in
  walk t (fun ~off:_ ~size:_ ~free ~small:_ -> if free then incr f else incr a);
  (!a, !f)

let allocated_payloads t =
  let acc = ref [] in
  walk t (fun ~off ~size:_ ~free ~small:_ -> if not free then acc := off :: !acc);
  List.rev !acc

(* {1 Lifecycle} *)

let make ~mem ~timing ~metrics ~lo ~hi =
  let line_bits = (Timing.cfg timing).Timing_config.line_bits in
  let lines = ((hi - 1) lsr line_bits) - (lo lsr line_bits) + 1 in
  let c_allocs = Metrics.counter metrics "alloc.allocs" in
  let c_frees = Metrics.counter metrics "alloc.frees" in
  let c_splits = Metrics.counter metrics "alloc.splits" in
  let c_refills = Metrics.counter metrics "alloc.slab_refills" in
  let c_pushes = Metrics.counter metrics "alloc.freelist_pushes" in
  let c_recovered = Metrics.counter metrics "alloc.recovered_blocks" in
  let c_frag = Metrics.counter metrics "alloc.frag_bytes" in
  {
    mem;
    timing;
    lo;
    hi;
    line = 1 lsl line_bits;
    line_bits;
    frag = 0;
    dirty = Bytes.make ((lines + 7) / 8) '\000';
    closed = false;
    c_allocs;
    c_frees;
    c_splits;
    c_refills;
    c_pushes;
    c_recovered;
    c_frag;
  }

let check_range ~lo ~hi =
  if not (Bitops.is_aligned lo 8 && Bitops.is_aligned hi 8) then
    invalid_arg "Palloc: range must be 8-aligned";
  if hi - lo < min_range then invalid_arg "Palloc: range too small"

let is_formatted mem ~lo:(lo : Vaddr.t) = Memsim.load64 mem lo = magic

let init ~mem ~timing ~metrics ~lo:(lo : Vaddr.t) ~hi:(hi : Vaddr.t) =
  let lo = (lo :> int) and hi = (hi :> int) in
  check_range ~lo ~hi;
  let t = make ~mem ~timing ~metrics ~lo ~hi in
  set64 t o_magic magic;
  set64 t o_version version;
  set64 t o_size (heap_size t);
  for c = 0 to nclasses - 1 do
    set_head t c 0
  done;
  set_large t data_lo;
  set64 t o_log_state op_idle;
  set64 t o_log_aux 0;
  set64 t o_log_block 0;
  set64 t o_log_dest 0;
  for i = 0 to roots - 1 do
    set64 t (root_cell i) 0
  done;
  set_size t data_lo (data_hi t - data_lo);
  set_tag t data_lo tag_free;
  set_link t data_lo 0;
  flush_range t 0 (superblock_bytes + header_bytes + 8);
  fence t;
  gauge t;
  t

let validate_super t ctx =
  if get64 t o_magic <> magic then corrupt "%s: bad heap magic" ctx;
  if get64 t o_version <> version then
    corrupt "%s: heap version %d, this build reads %d" ctx (get64 t o_version)
      version;
  if get64 t o_size <> heap_size t then
    corrupt "%s: heap formatted for %d bytes, attached over %d" ctx
      (get64 t o_size) (heap_size t)

(* Resolve the pending logged operation: allocations roll back (the
   caller cannot have durably published the block anywhere but the
   logged destination cell, which is cleared with it), frees roll
   forward (the intent was durably logged). Every branch is idempotent
   — recover can itself crash and be re-run. *)
let resolve_log t state =
  if state <> op_idle then begin
    let block = get64 t o_log_block in
    let dest = get64 t o_log_dest in
    (match state with
    | s when s = op_alloc_small || s = op_free_small ->
        let c = get64 t o_log_aux in
        if c < 0 || c >= nclasses then corrupt "recover: bad logged class %d" c;
        set64 t (block - 8) (sm_word c ~alloc:false);
        flush_range t (block - 8) 8
    | s when s = op_alloc_large || s = op_free_large ->
        if get_tag t block = tag_large then begin
          set_tag t block tag_free;
          flush_range t (block + 8) 8
        end
    | s -> corrupt "recover: bad log state %d" s);
    if dest <> 0 then begin
      set64 t dest 0;
      flush_range t dest 8
    end;
    fence t;
    log_disarm t
  end

(* A cleanly closed heap: its lists and merged sizes are durable and
   the aux word holds [frag]. Disarm the mark durably before any
   mutation, so a crash from here on takes the sweep. *)
let reopen_closed t =
  t.frag <- get64 t o_log_aux;
  log_disarm t;
  gauge t;
  t

(* Rebuild every free list from the physical tiling, after resolving
   the pending logged operation. *)
let sweep t state =
  resolve_log t state;
  (* The links and heads written here are volatile (a later crash
     re-runs this sweep); adjacent free large blocks are re-merged by
     growing the first header over its neighbours — any partial
     durability of those plain stores is again a consistent tiling. *)
  let class_frees = Array.make nclasses [] in
  let larges = ref [] in
  let blocks = ref 0 in
  let hi_off = data_hi t in
  let b = ref data_lo in
  while !b < hi_off do
    validate_block t !b "recover";
    let size = get_size t !b in
    let tag = get_tag t !b in
    incr blocks;
    (if tag = tag_free then begin
       match !larges with
       | prev :: rest when prev + get_size t prev = !b ->
           (* merge the run in place *)
           set_list t prev (get_size t prev + size);
           larges := prev :: rest
       | _ -> larges := !b :: !larges
     end
     else if tag = tag_large then ()
     else if is_slab_tag tag then begin
       let c = slab_class tag in
       if c >= nclasses then corrupt "recover: bad slab class %d at 0x%x" c !b;
       let cs = class_sizes.(c) in
       let stride = 8 + cs in
       let count = (size - header_bytes) / stride in
       for i = count - 1 downto 0 do
         let w_off = !b + header_bytes + (i * stride) in
         let w = get64 t w_off in
         if not (sm_is w) || sm_class w <> c then
           corrupt "recover: bad state word 0x%x at 0x%x" w w_off;
         if not (sm_alloc w) then
           class_frees.(c) <- (w_off + 8) :: class_frees.(c);
         incr blocks
       done
     end
     else corrupt "recover: bad tag 0x%x at 0x%x" tag !b);
    b := !b + size
  done;
  if !b <> hi_off then
    corrupt "recover: heap walk ended at 0x%x, expected 0x%x" !b hi_off;
  (* Chain the collected sets, ascending by address. *)
  let frag = ref 0 in
  for c = 0 to nclasses - 1 do
    let rec chain next = function
      | [] -> set_head t c next
      | p :: rest ->
          set_list t p next;
          frag := !frag + class_sizes.(c);
          chain p rest
    in
    (* class_frees is descending, so fold from the back builds an
       ascending list. *)
    chain 0 (List.rev class_frees.(c))
  done;
  let rec chain_large next = function
    | [] -> set_large t next
    | b :: rest ->
        set_link t b next;
        chain_large b rest
  in
  chain_large 0 !larges;
  t.frag <- !frag;
  t.c_recovered := !(t.c_recovered) + !blocks;
  gauge t;
  t

let recover ~mem ~timing ~metrics ~lo:(lo : Vaddr.t) ~hi:(hi : Vaddr.t) =
  let lo = (lo :> int) and hi = (hi :> int) in
  check_range ~lo ~hi;
  let t = make ~mem ~timing ~metrics ~lo ~hi in
  validate_super t "recover";
  let state = get64 t o_log_state in
  if state = op_closed then reopen_closed t else sweep t state

(* Make every volatile list store durable, then [frag], then the mark:
   each group is fenced before the next, so a durable [closed] mark
   always finds durable lists and a durable [frag] beside it. *)
let close t =
  check_open t "close";
  let line0 = t.lo land lnot (t.line - 1) in
  (* In bit order, a word at a time past the zero words. *)
  let n = Bytes.length t.dirty in
  let i = ref 0 in
  while !i < n do
    if !i + 8 <= n && Int64.equal (Bytes.get_int64_ne t.dirty !i) 0L then
      i := !i + 8
    else begin
      let byte = Char.code (Bytes.get t.dirty !i) in
      for j = 0 to 7 do
        if byte land (1 lsl j) <> 0 then
          Timing.flush t.timing ~addr:(line0 + ((8 * !i) + j) * t.line)
      done;
      incr i
    end
  done;
  fence t;
  set64 t o_log_aux t.frag;
  flush_range t o_log_aux 8;
  fence t;
  set64 t o_log_state op_closed;
  flush_range t o_log_state 8;
  fence t;
  t.closed <- true

let log_state_addr t = abs t o_log_state
let log_closed = op_closed

(* {1 Invariant check} *)

let check t =
  validate_super t "check";
  if get64 t o_log_state <> op_idle then
    corrupt "check: operation log is armed";
  (* Physical sweep: collect the free sets and verify the tiling (walk
     itself validates headers, state words and slab classes). *)
  let phys_small = Array.make nclasses [] in
  let phys_large = ref [] in
  let allocated = Hashtbl.create 64 in
  let prev_free_large = ref false in
  walk t (fun ~off ~size:_ ~free ~small ->
      if small then begin
        prev_free_large := false;
        let w = get64 t (off - 8) in
        if free then
          phys_small.(sm_class w) <- off :: phys_small.(sm_class w)
        else Hashtbl.replace allocated off ()
      end
      else if free then begin
        if !prev_free_large then
          corrupt "check: adjacent free large blocks at 0x%x" (off - header_bytes);
        prev_free_large := true;
        phys_large := (off - header_bytes) :: !phys_large
      end
      else begin
        prev_free_large := false;
        Hashtbl.replace allocated off ()
      end);
  let phys_large = List.rev !phys_large in
  (* List sweeps: acyclic, matching the physical sets exactly. *)
  let budget = heap_size t in
  for c = 0 to nclasses - 1 do
    let rec go cur acc steps =
      if cur = 0 then List.rev acc
      else if steps > budget then corrupt "check: class %d list cycle" c
      else begin
        let w = get64 t (cur - 8) in
        if not (sm_is w) || sm_class w <> c || sm_alloc w then
          corrupt "check: class %d list holds bad block 0x%x" c cur;
        go (get64 t cur) (cur :: acc) (steps + 1)
      end
    in
    let listed = go (get_head t c) [] 0 in
    if List.sort compare listed <> List.sort compare phys_small.(c) then
      corrupt "check: class %d list (%d entries) disagrees with the sweep (%d)"
        c (List.length listed)
        (List.length phys_small.(c))
  done;
  let rec go_large cur acc steps =
    if cur = 0 then List.rev acc
    else if steps > budget then corrupt "check: large list cycle"
    else begin
      validate_block t cur "check";
      if get_tag t cur <> tag_free then
        corrupt "check: large list holds non-free block 0x%x" cur;
      (match acc with
      | prev :: _ when prev >= cur -> corrupt "check: large list not sorted"
      | _ -> ());
      go_large (get_link t cur) (cur :: acc) (steps + 1)
    end
  in
  let listed_large = go_large (get_large t) [] 0 in
  if listed_large <> phys_large then
    corrupt "check: large list (%d entries) disagrees with the sweep (%d)"
      (List.length listed_large) (List.length phys_large);
  (* Root cells reference allocated payloads only. *)
  for i = 0 to roots - 1 do
    let p = get64 t (root_cell i) in
    if p <> 0 && not (Hashtbl.mem allocated p) then
      corrupt "check: root %d references 0x%x, which is not an allocated block"
        i p
  done
