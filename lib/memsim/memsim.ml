exception Fault of { addr : int; size : int; reason : string }

module Metrics = Nvmpi_obs.Metrics
module Timing = Nvmpi_cachesim.Timing

type observer = write:bool -> addr:int -> size:int -> unit

let no_observer : observer = fun ~write:_ ~addr:_ ~size:_ -> ()
let no_page = Bytes.create 0

(* [is_zero b off len]: do [len] bytes of [b] from [off] all read 0? *)
let is_zero b off len =
  let i = ref 0 in
  while !i + 8 <= len && Int64.equal (Bytes.get_int64_ne b (off + !i)) 0L do
    i := !i + 8
  done;
  while !i < len && Bytes.get b (off + !i) = '\000' do
    incr i
  done;
  !i >= len

module Page_image = struct
  let page_bits = 12
  let page_size = 1 lsl page_bits

  (* Slot [i] holds bytes [i * page_size, (i + 1) * page_size) as a
     full page of its own, or [no_page], which reads as zeros. Bytes of
     the last page past [size] are 0 unless a mapping wrote them. *)
  type t = { size : int; pages : Bytes.t array }

  let create size =
    if size < 0 then invalid_arg "Memsim.Page_image.create";
    { size; pages = Array.make ((size + page_size - 1) lsr page_bits) no_page }

  let size t = t.size

  let present t =
    Array.fold_left (fun n p -> if p == no_page then n else n + 1) 0 t.pages

  let copy_page p = if p == no_page then p else Bytes.copy p

  (* Bytes of the image held by slot [i]. *)
  let slot_len t i = min page_size (t.size - (i lsl page_bits))

  (* Restores the zeros of the last page past [size], which a mapping of
     the image can write. *)
  let zero_tail t =
    let n = Array.length t.pages in
    if n > 0 then begin
      let p = t.pages.(n - 1) and len = slot_len t (n - 1) in
      if p != no_page && len < page_size then
        Bytes.fill p len (page_size - len) '\000'
    end

  let copy t =
    let c = { t with pages = Array.map copy_page t.pages } in
    zero_tail c;
    c

  let check t off len =
    if off < 0 || len < 0 || off > t.size - len then
      invalid_arg "Memsim.Page_image: range outside the image"

  let blit_from_bytes src src_off t off len =
    check t off len;
    if src_off < 0 || src_off > Bytes.length src - len then
      invalid_arg "Memsim.Page_image.blit_from_bytes";
    let i = ref 0 in
    while !i < len do
      let o = off + !i in
      let slot = o lsr page_bits and poff = o land (page_size - 1) in
      let chunk = min (len - !i) (page_size - poff) in
      let page =
        let p = t.pages.(slot) in
        if p != no_page then p
        else begin
          let p = Bytes.make page_size '\000' in
          t.pages.(slot) <- p;
          p
        end
      in
      Bytes.blit src (src_off + !i) page poff chunk;
      i := !i + chunk
    done

  let sub t off len =
    check t off len;
    let b = Bytes.make len '\000' in
    let i = ref 0 in
    while !i < len do
      let o = off + !i in
      let slot = o lsr page_bits and poff = o land (page_size - 1) in
      let chunk = min (len - !i) (page_size - poff) in
      let p = t.pages.(slot) in
      if p != no_page then Bytes.blit p poff b !i chunk;
      i := !i + chunk
    done;
    b

  let to_bytes t = sub t 0 t.size

  let of_bytes b =
    let t = create (Bytes.length b) in
    Array.iteri
      (fun i _ ->
        let off = i lsl page_bits and len = slot_len t i in
        if not (is_zero b off len) then blit_from_bytes b off t off len)
      t.pages;
    t

  let get_int64_le t off = Bytes.get_int64_le (sub t off 8) 0

  let set_int64_le t off v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 v;
    blit_from_bytes b 0 t off 8

  let resize t size =
    if size < t.size then invalid_arg "Memsim.Page_image.resize";
    let grown = create size in
    Array.iteri (fun i p -> grown.pages.(i) <- copy_page p) t.pages;
    grown

  (* A present page of [t] is rewritten in place, never replaced, so a
     TLB entry that holds it stays valid. *)
  let restore ~src t =
    if src.size <> t.size then
      invalid_arg "Memsim.Page_image.restore: size mismatch";
    Array.iteri
      (fun i s ->
        let d = t.pages.(i) in
        if d != no_page then
          if s == no_page then Bytes.fill d 0 page_size '\000'
          else Bytes.blit s 0 d 0 page_size
        else if s != no_page then t.pages.(i) <- Bytes.copy s)
      src.pages
end

let page_bits = Page_image.page_bits
let page_size = Page_image.page_size
let page_mask = page_size - 1

(* What a range of memory's own pages maps: it is never installed, so
   [==] tells the two kinds of range apart. *)
let anonymous = Page_image.create 0

type t = {
  (* The pages of the anonymous ranges, by page index. *)
  pages : (int, Bytes.t) Hashtbl.t;
  (* All-zero pages that drop_zero_page took out of [pages], taken again
     before a page is allocated. *)
  mutable spares : Bytes.t list;
  (* The mapped ranges, page [firsts.(i)] to page [lasts.(i)] for [i]
     below [n_ranges]: disjoint and sorted by first page. Range [i] maps
     [images.(i)], slot [k] at page [firsts.(i) + k], or is anonymous
     and keeps its pages in [pages]. An anonymous range is never
     removed. *)
  mutable firsts : int array;
  mutable lasts : int array;
  mutable images : Page_image.t array;
  mutable n_ranges : int;
  timing : Timing.t; (* the cache model every access is charged to *)
  (* Harness observers live in a growable array: O(1) amortized
     registration and index-loop dispatch with no list cells. *)
  mutable obs : observer array;
  mutable n_obs : int;
  (* Direct-mapped TLB of [tlb_size] entries in front of the ranges:
     slot [tlb_slot p] holds page [p] in [tlb_pages] when [tlb_tags]
     holds [p], and -1 when empty. Only present pages enter it, never
     [zero_page]; evict and drop_zero_page, the operations that drop
     pages, clear the slots of the pages they drop. *)
  tlb_tags : int array;
  tlb_pages : Bytes.t array;
  (* What a load from an absent mapped page reads. Never written. *)
  zero_page : Bytes.t;
  (* Counter cells resolved once at creation: the access path runs on
     every simulated load/store, so it must not pay a registry lookup. *)
  c_loads : int ref;
  c_stores : int ref;
}

(* Every RIV or fat decode alternates a data page with a table page, so
   each needs an entry of its own. *)
let tlb_size = 64
let tlb_mask = tlb_size - 1

(* Regions sit at segment-aligned bases, 2^20 pages apart in the
   default layout, so with [p land tlb_mask] page [k] of every region
   would share one slot. Folding the segment bits in spreads them. *)
let[@inline] tlb_slot p = (p lxor (p lsr 20)) land tlb_mask

let create ?metrics ~timing () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    pages = Hashtbl.create 1024;
    spares = [];
    firsts = [||];
    lasts = [||];
    images = [||];
    n_ranges = 0;
    timing;
    obs = [||];
    n_obs = 0;
    tlb_tags = Array.make tlb_size (-1);
    tlb_pages = Array.make tlb_size no_page;
    zero_page = Bytes.make page_size '\000';
    c_loads = Metrics.counter metrics "mem.loads";
    c_stores = Metrics.counter metrics "mem.stores";
  }

let pages t = Hashtbl.length t.pages

let fault addr size reason = raise (Fault { addr; size; reason })

(* The index of the last range whose first page is at most [p], or -1:
   a binary search. *)
let range_before t p =
  let lo = ref 0 and hi = ref t.n_ranges in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get t.firsts mid <= p then lo := mid + 1 else hi := mid
  done;
  !lo - 1

(* The index of the range holding page [p], or -1. *)
let range_of t p =
  let i = range_before t p in
  if i >= 0 && p <= Array.unsafe_get t.lasts i then i else -1

(* Page [p] of range [i]: its bytes, or [no_page] while it is absent. *)
let page_of t i p =
  let img = t.images.(i) in
  if img == anonymous then
    match Hashtbl.find t.pages p with
    | page -> page
    | exception Not_found -> no_page
  else img.Page_image.pages.(p - t.firsts.(i))

(* Makes [page] the bytes of absent page [p] of range [i]. *)
let set_page t i p page =
  let img = t.images.(i) in
  if img == anonymous then Hashtbl.add t.pages p page
  else img.Page_image.pages.(p - t.firsts.(i)) <- page

(* Maps pages [first, last] over [img]. The ranges are disjoint and
   sorted, so only the two neighbours of the insertion point can overlap
   the new one. *)
let add_range t ~what ~addr ~first ~last img =
  let i = range_before t first + 1 in
  if
    (i > 0 && t.lasts.(i - 1) >= first)
    || (i < t.n_ranges && t.firsts.(i) <= last)
  then
    invalid_arg
      (Printf.sprintf "%s: range at 0x%x overlaps existing mapping" what addr);
  let n = t.n_ranges in
  if n = Array.length t.firsts then begin
    let grow a fill =
      let b = Array.make (max 8 (2 * n)) fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.firsts <- grow t.firsts 0;
    t.lasts <- grow t.lasts 0;
    t.images <- grow t.images anonymous
  end;
  Array.blit t.firsts i t.firsts (i + 1) (n - i);
  Array.blit t.lasts i t.lasts (i + 1) (n - i);
  Array.blit t.images i t.images (i + 1) (n - i);
  t.firsts.(i) <- first;
  t.lasts.(i) <- last;
  t.images.(i) <- img;
  t.n_ranges <- n + 1

let map t ~addr ~size =
  if addr < 0 || size <= 0 then invalid_arg "Memsim.map: bad range";
  add_range t ~what:"Memsim.map" ~addr ~first:(addr lsr page_bits)
    ~last:((addr + size - 1) lsr page_bits)
    anonymous

(* A region's open counts one store per page it spans and its close one
   load, as the page copies that open and close made once did: [serve]
   reports both counters. *)
let install t ~addr img =
  if addr < 0 || addr land page_mask <> 0 then
    invalid_arg "Memsim.install: base not page-aligned";
  let first = addr lsr page_bits in
  let n = Array.length img.Page_image.pages in
  if n = 0 then invalid_arg "Memsim.install: empty image";
  add_range t ~what:"Memsim.install" ~addr ~first ~last:(first + n - 1) img;
  t.c_stores := !(t.c_stores) + n

let evict t ~addr =
  let first = addr lsr page_bits in
  let i = range_before t first in
  if i < 0 || t.firsts.(i) <> first then
    invalid_arg (Printf.sprintf "Memsim.evict: no mapping at 0x%x" addr);
  let img = t.images.(i) in
  if img == anonymous then
    invalid_arg (Printf.sprintf "Memsim.evict: no image mapped at 0x%x" addr);
  t.c_loads := !(t.c_loads) + Array.length img.Page_image.pages;
  Page_image.zero_tail img;
  let n = t.n_ranges - 1 in
  Array.blit t.firsts (i + 1) t.firsts i (n - i);
  Array.blit t.lasts (i + 1) t.lasts i (n - i);
  Array.blit t.images (i + 1) t.images i (n - i);
  t.images.(n) <- anonymous;
  t.n_ranges <- n;
  let last = first + Array.length img.Page_image.pages - 1 in
  for s = 0 to tlb_size - 1 do
    let p = t.tlb_tags.(s) in
    if p >= first && p <= last then begin
      t.tlb_tags.(s) <- -1;
      t.tlb_pages.(s) <- no_page
    end
  done

(* Only an anonymous range's pages are in [pages]: an image's page is
   never released. The page released is all zero, so it is a spare as
   it stands. [Bytes.equal] with [zero_page], the runtime's word
   compare, tests a page in less than half the time of [is_zero]'s
   loop (docs/PERF.md, "Residency misses"). *)
let drop_zero_page t a =
  let p = a lsr page_bits in
  match Hashtbl.find_opt t.pages p with
  | Some page when Bytes.equal page t.zero_page ->
      Hashtbl.remove t.pages p;
      t.spares <- page :: t.spares;
      let s = tlb_slot p in
      if t.tlb_tags.(s) = p then begin
        t.tlb_tags.(s) <- -1;
        t.tlb_pages.(s) <- no_page
      end
  | _ -> ()

let is_mapped t a = a >= 0 && range_of t (a lsr page_bits) >= 0

(* A zero page for memory to materialize: a spare if there is one, else
   a new one. *)
let take_page t =
  match t.spares with
  | page :: rest ->
      t.spares <- rest;
      page
  | [] -> Bytes.make page_size '\000'

let add_observer t f =
  if t.n_obs = Array.length t.obs then begin
    let grown = Array.make (max 4 (2 * t.n_obs)) no_observer in
    Array.blit t.obs 0 grown 0 t.n_obs;
    t.obs <- grown
  end;
  t.obs.(t.n_obs) <- f;
  t.n_obs <- t.n_obs + 1

(* The one access path: every access is counted, charged to the cache
   model, then shown to the harness observers in registration order. *)

let[@inline] note t write = if write then incr t.c_stores else incr t.c_loads

let[@inline never] observe t write addr size =
  let obs = t.obs in
  for i = 0 to t.n_obs - 1 do
    (Array.unsafe_get obs i) ~write ~addr ~size
  done

(* A typed access is naturally aligned and at most 8 bytes, so it lies
   in one cache line. *)
let[@inline] charge_line t write addr size =
  note t write;
  Timing.access_line t.timing ~addr ~write;
  if t.n_obs > 0 then observe t write addr size

let charge t write addr size =
  note t write;
  Timing.access t.timing ~addr ~size ~write;
  if t.n_obs > 0 then observe t write addr size

let fill_tlb t p s page =
  t.tlb_tags.(s) <- p;
  t.tlb_pages.(s) <- page;
  page

(* TLB miss on page [p], whose slot is [s]. A load from an absent
   mapped page reads [zero_page] and leaves memory and the TLB as they
   were; a store materializes the page, in memory's table or in the
   slot of the image its range maps. *)
let[@inline never] walk t ~write p s addr size =
  let i = range_of t p in
  if i < 0 then fault addr size "unmapped";
  let page = page_of t i p in
  if page != no_page then fill_tlb t p s page
  else if write then begin
    let page = take_page t in
    set_page t i p page;
    fill_tlb t p s page
  end
  else t.zero_page

(* [s] is below [tlb_size], the length of both TLB arrays. *)
let[@inline] get_page t ~write addr size =
  let p = addr lsr page_bits in
  let s = tlb_slot p in
  if Array.unsafe_get t.tlb_tags s = p then Array.unsafe_get t.tlb_pages s
  else walk t ~write p s addr size

(* Out of line, so that the [check_align] every typed access inlines
   is a compare and a branch. *)
let[@inline never] misaligned addr size = fault addr size "misaligned"

let[@inline] check_align addr size =
  if addr land (size - 1) <> 0 then misaligned addr size

let load8 t a =
  if a < 0 then fault a 1 "negative address";
  let page = get_page t ~write:false a 1 in
  charge_line t false a 1;
  Char.code (Bytes.get page (a land page_mask))

let load16 t a =
  check_align a 2;
  let page = get_page t ~write:false a 2 in
  charge_line t false a 2;
  Bytes.get_uint16_le page (a land page_mask)

let load32 t a =
  check_align a 4;
  let page = get_page t ~write:false a 4 in
  charge_line t false a 4;
  Int32.to_int (Bytes.get_int32_le page (a land page_mask)) land 0xFFFFFFFF

let load64 t a =
  check_align a 8;
  let page = get_page t ~write:false a 8 in
  charge_line t false a 8;
  Int64.to_int (Bytes.get_int64_le page (a land page_mask))

let store8 t a v =
  if a < 0 then fault a 1 "negative address";
  let page = get_page t ~write:true a 1 in
  charge_line t true a 1;
  Bytes.set page (a land page_mask) (Char.chr (v land 0xFF))

let store16 t a v =
  check_align a 2;
  let page = get_page t ~write:true a 2 in
  charge_line t true a 2;
  Bytes.set_uint16_le page (a land page_mask) (v land 0xFFFF)

let store32 t a v =
  check_align a 4;
  let page = get_page t ~write:true a 4 in
  charge_line t true a 4;
  Bytes.set_int32_le page (a land page_mask) (Int32.of_int (v land 0xFFFFFFFF))

let store64 t a v =
  check_align a 8;
  let page = get_page t ~write:true a 8 in
  charge_line t true a 8;
  Bytes.set_int64_le page (a land page_mask) (Int64.of_int v)

let load_sized t ~size a =
  match size with
  | 1 -> load8 t a
  | 2 -> load16 t a
  | 4 -> load32 t a
  | 8 -> load64 t a
  | _ -> invalid_arg "Memsim.load_sized"

let store_sized t ~size a v =
  match size with
  | 1 -> store8 t a v
  | 2 -> store16 t a v
  | 4 -> store32 t a v
  | 8 -> store64 t a v
  | _ -> invalid_arg "Memsim.store_sized"

(* Bulk transfers copy raw page chunks (so arbitrary byte patterns
   roundtrip exactly, including 64-bit words that would overflow a native
   int) and count one access per chunk; the cache model charges every
   line the chunk touches. *)

let blit_from_bytes t ~addr b =
  let len = Bytes.length b in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let page = get_page t ~write:true a 1 in
    let poff = a land page_mask in
    let chunk = min (len - !i) (page_size - poff) in
    Bytes.blit b !i page poff chunk;
    charge t true a chunk;
    i := !i + chunk
  done

let blit_to_bytes t ~addr ~len =
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let page = get_page t ~write:false a 1 in
    let poff = a land page_mask in
    let chunk = min (len - !i) (page_size - poff) in
    Bytes.blit page poff b !i chunk;
    charge t false a chunk;
    i := !i + chunk
  done;
  b

(* Debug port: raw access that bypasses the access path entirely — no
   charge, no observers, no counters. Harness-only; never use it to
   model a program access. *)

let peek_bytes t ~addr ~len =
  if addr < 0 || len < 0 then invalid_arg "Memsim.peek_bytes";
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let p = a lsr page_bits in
    let poff = a land page_mask in
    let chunk = min (len - !i) (page_size - poff) in
    let r = range_of t p in
    if r < 0 then fault a chunk "unmapped (peek)";
    let page = page_of t r p in
    if page != no_page then Bytes.blit page poff b !i chunk
    else Bytes.fill b !i chunk '\000';
    i := !i + chunk
  done;
  b

let poke_bytes t ~addr b =
  if addr < 0 then invalid_arg "Memsim.poke_bytes";
  let len = Bytes.length b in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let page = get_page t ~write:true a 1 in
    let poff = a land page_mask in
    let chunk = min (len - !i) (page_size - poff) in
    Bytes.blit b !i page poff chunk;
    i := !i + chunk
  done

(* Typed facade (Kinds discipline, see Nvmpi_addr.Kinds): the public
   signature takes typed virtual addresses; the wrappers are zero-cost
   coercions over the int-based engine above. *)

module Vaddr = Nvmpi_addr.Kinds.Vaddr

let map t ~addr:(a : Vaddr.t) ~size = map t ~addr:(a :> int) ~size
let drop_zero_page t (a : Vaddr.t) = drop_zero_page t (a :> int)
let is_mapped t (a : Vaddr.t) = is_mapped t (a :> int)
let load8 t (a : Vaddr.t) = load8 t (a :> int)
let load16 t (a : Vaddr.t) = load16 t (a :> int)
let load32 t (a : Vaddr.t) = load32 t (a :> int)
let load64 t (a : Vaddr.t) = load64 t (a :> int)
let store8 t (a : Vaddr.t) v = store8 t (a :> int) v
let store16 t (a : Vaddr.t) v = store16 t (a :> int) v
let store32 t (a : Vaddr.t) v = store32 t (a :> int) v
let store64 t (a : Vaddr.t) v = store64 t (a :> int) v
let load_sized t ~size (a : Vaddr.t) = load_sized t ~size (a :> int)
let store_sized t ~size (a : Vaddr.t) v = store_sized t ~size (a :> int) v
let blit_from_bytes t ~addr:(a : Vaddr.t) b = blit_from_bytes t ~addr:(a :> int) b
let blit_to_bytes t ~addr:(a : Vaddr.t) ~len = blit_to_bytes t ~addr:(a :> int) ~len
let peek_bytes t ~addr:(a : Vaddr.t) ~len = peek_bytes t ~addr:(a :> int) ~len
let poke_bytes t ~addr:(a : Vaddr.t) b = poke_bytes t ~addr:(a :> int) b
let install t ~addr:(a : Vaddr.t) img = install t ~addr:(a :> int) img
let evict t ~addr:(a : Vaddr.t) = evict t ~addr:(a :> int)
