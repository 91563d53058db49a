exception Fault of { addr : int; size : int; reason : string }

module Metrics = Nvmpi_obs.Metrics
module Timing = Nvmpi_cachesim.Timing

type observer = write:bool -> addr:int -> size:int -> unit

let no_observer : observer = fun ~write:_ ~addr:_ ~size:_ -> ()
let no_page = Bytes.create 0

(* [is_zero b off len]: do [len] bytes of [b] from [off] all read 0?
   Word-wise: whole pages are scanned on every region close. *)
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
     the last page past [size] are 0. *)
  type t = { size : int; pages : Bytes.t array }

  let create size =
    if size < 0 then invalid_arg "Memsim.Page_image.create";
    { size; pages = Array.make ((size + page_size - 1) lsr page_bits) no_page }

  let size t = t.size

  let present t =
    Array.fold_left (fun n p -> if p == no_page then n else n + 1) 0 t.pages

  let copy_page p = if p == no_page then p else Bytes.copy p
  let copy t = { t with pages = Array.map copy_page t.pages }

  (* Bytes of the image held by slot [i]. *)
  let slot_len t i = min page_size (t.size - (i lsl page_bits))

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
end

let page_bits = Page_image.page_bits
let page_size = Page_image.page_size
let page_mask = page_size - 1

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  (* Pages that unmap, evict and drop_zero_page took out of [pages],
     taken again before a page is allocated. Every taker overwrites the
     whole page. *)
  mutable spares : Bytes.t list;
  (* The mapped ranges, page [firsts.(i)] to page [lasts.(i)] for [i]
     below [n_ranges]: disjoint and sorted by first page. *)
  mutable firsts : int array;
  mutable lasts : int array;
  mutable n_ranges : int;
  timing : Timing.t; (* the cache model every access is charged to *)
  (* Harness observers live in a growable array: O(1) amortized
     registration and index-loop dispatch with no list cells. *)
  mutable obs : observer array;
  mutable n_obs : int;
  (* Direct-mapped TLB of [tlb_size] entries in front of [pages]: slot
     [p land tlb_mask] holds page [p] in [tlb_pages] when [tlb_tags]
     holds [p], and -1 when empty. Only pages of [pages] enter it, never
     [zero_page]; unmap, evict and drop_zero_page, the operations that
     drop pages, clear their slots. *)
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

let create ?metrics ~timing () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    pages = Hashtbl.create 1024;
    spares = [];
    firsts = [||];
    lasts = [||];
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

(* Does page index [p] fall inside a mapped range? *)
let page_in_ranges t p =
  let i = range_before t p in
  i >= 0 && p <= t.lasts.(i)

let map t ~addr ~size =
  if addr < 0 || size <= 0 then invalid_arg "Memsim.map: bad range";
  let first = addr lsr page_bits in
  let last = (addr + size - 1) lsr page_bits in
  (* The ranges are disjoint and sorted, so only the two neighbours of
     the insertion point can overlap the new one. *)
  let i = range_before t first + 1 in
  if
    (i > 0 && t.lasts.(i - 1) >= first)
    || (i < t.n_ranges && t.firsts.(i) <= last)
  then
    invalid_arg
      (Printf.sprintf "Memsim.map: range at 0x%x overlaps existing mapping"
         addr);
  let n = t.n_ranges in
  if n = Array.length t.firsts then begin
    let grow a =
      let b = Array.make (max 8 (2 * n)) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    t.firsts <- grow t.firsts;
    t.lasts <- grow t.lasts
  end;
  Array.blit t.firsts i t.firsts (i + 1) (n - i);
  Array.blit t.lasts i t.lasts (i + 1) (n - i);
  t.firsts.(i) <- first;
  t.lasts.(i) <- last;
  t.n_ranges <- n + 1

(* The index of the range that starts at [addr]'s page. *)
let mapping_at t ~addr ~what =
  let first = addr lsr page_bits in
  let i = range_before t first in
  if i < 0 || t.firsts.(i) <> first then
    invalid_arg (Printf.sprintf "%s: no mapping at 0x%x" what addr);
  i

(* Moves page [p], if present, from [pages] to the spares. The caller
   clears the TLB. *)
let release t p =
  match Hashtbl.find t.pages p with
  | page ->
      Hashtbl.remove t.pages p;
      t.spares <- page :: t.spares
  | exception Not_found -> ()

(* Removes range [i], releasing its pages from page [from] on. *)
let remove_range t i ~from =
  for p = from to t.lasts.(i) do
    release t p
  done;
  let n = t.n_ranges - 1 in
  Array.blit t.firsts (i + 1) t.firsts i (n - i);
  Array.blit t.lasts (i + 1) t.lasts i (n - i);
  t.n_ranges <- n;
  Array.fill t.tlb_tags 0 tlb_size (-1);
  Array.fill t.tlb_pages 0 tlb_size no_page

let unmap t ~addr =
  let i = mapping_at t ~addr ~what:"Memsim.unmap" in
  remove_range t i ~from:t.firsts.(i)

let drop_zero_page t a =
  let p = a lsr page_bits in
  match Hashtbl.find_opt t.pages p with
  | Some page when is_zero page 0 (Bytes.length page) ->
      release t p;
      let s = p land tlb_mask in
      if t.tlb_tags.(s) = p then begin
        t.tlb_tags.(s) <- -1;
        t.tlb_pages.(s) <- no_page
      end
  | _ -> ()

let is_mapped t a = a >= 0 && page_in_ranges t (a lsr page_bits)

let mappings t =
  List.init t.n_ranges (fun i ->
      let first = t.firsts.(i) in
      (first lsl page_bits, (t.lasts.(i) - first + 1) lsl page_bits))

(* A page for memory to materialize: a spare if there is one, else a new
   one. Its bytes are arbitrary, so the caller overwrites all of them. *)
let take_page t =
  match t.spares with
  | page :: rest ->
      t.spares <- rest;
      page
  | [] -> Bytes.create page_size

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
   were; a store materializes the page. *)
let[@inline never] walk t ~write p s addr size =
  match Hashtbl.find t.pages p with
  | page -> fill_tlb t p s page
  | exception Not_found ->
      if not (page_in_ranges t p) then fault addr size "unmapped";
      if write then begin
        let page = take_page t in
        Bytes.fill page 0 page_size '\000';
        Hashtbl.add t.pages p page;
        fill_tlb t p s page
      end
      else t.zero_page

(* [s] is below [tlb_size], the length of both TLB arrays. *)
let[@inline] get_page t ~write addr size =
  let p = addr lsr page_bits in
  let s = p land tlb_mask in
  if Array.unsafe_get t.tlb_tags s = p then Array.unsafe_get t.tlb_pages s
  else walk t ~write p s addr size

let check_align addr size =
  if addr land (size - 1) <> 0 then fault addr size "misaligned"

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

(* Whole-image transfers, slot by slot: slot [i] of an image at the
   page-aligned [addr] is memory page [addr / page + i]. [count] bumps
   one load or store per slot, present or not, as a chunked blit of the
   flat image does; the debug-port forms pass [false]. None charges the
   cache model or calls observers. The copies leave the TLB as it was: a
   page they write is either already in the table (and overwritten in
   place) or new. *)

let image_first_page ~addr ~what =
  if addr < 0 || addr land page_mask <> 0 then
    invalid_arg (what ^ ": base not page-aligned");
  addr lsr page_bits

let check_slot_mapped t p len =
  if not (page_in_ranges t p) then
    fault (p lsl page_bits) len "unmapped (image copy)"

(* An image page's bytes past the image are 0, so a present slot
   overwrites the whole memory page, and an absent one zeroes it. *)
let copy_in t ~addr ~count ~what (img : Page_image.t) =
  let first = image_first_page ~addr ~what in
  Array.iteri
    (fun i src ->
      let p = first + i in
      check_slot_mapped t p (Page_image.slot_len img i);
      (match Hashtbl.find t.pages p with
      | dst ->
          if src == no_page then Bytes.fill dst 0 page_size '\000'
          else Bytes.blit src 0 dst 0 page_size
      | exception Not_found ->
          if src != no_page then begin
            let dst = take_page t in
            Bytes.blit src 0 dst 0 page_size;
            Hashtbl.add t.pages p dst
          end);
      if count then note t true)
    img.Page_image.pages

let copy_out t ~addr ~count ~what (img : Page_image.t) =
  let first = image_first_page ~addr ~what in
  let pages = img.Page_image.pages in
  Array.iteri
    (fun i dst ->
      let p = first + i and len = Page_image.slot_len img i in
      check_slot_mapped t p len;
      (match Hashtbl.find_opt t.pages p with
      | Some src ->
          let dst =
            if dst != no_page then dst
            else begin
              let fresh = Bytes.make page_size '\000' in
              pages.(i) <- fresh;
              fresh
            end
          in
          Bytes.blit src 0 dst 0 len
      | None -> pages.(i) <- no_page);
      if count then note t false)
    pages

let install t ~addr img =
  copy_in t ~addr ~count:true ~what:"Memsim.install" img

let extract t ~addr img =
  copy_out t ~addr ~count:true ~what:"Memsim.extract" img

(* Each present memory page becomes the image's slot, its bytes past the
   image zeroed, and the slot's old page becomes a spare; a slot over an
   absent memory page becomes absent and its old page is dropped, so
   memory never owns more pages than it held at its peak. *)
let evict t ~addr (img : Page_image.t) =
  let first = image_first_page ~addr ~what:"Memsim.evict" in
  let r = mapping_at t ~addr ~what:"Memsim.evict" in
  let pages = img.Page_image.pages in
  let n = Array.length pages in
  let past = t.lasts.(r) + 1 in
  if first + n > past then
    fault (past lsl page_bits)
      (Page_image.slot_len img (past - first))
      "unmapped (image copy)";
  Array.iteri
    (fun i old ->
      let p = first + i in
      (match Hashtbl.find t.pages p with
      | page ->
          Hashtbl.remove t.pages p;
          let len = Page_image.slot_len img i in
          if len < page_size then Bytes.fill page len (page_size - len) '\000';
          if old != no_page then t.spares <- old :: t.spares;
          pages.(i) <- page
      | exception Not_found -> pages.(i) <- no_page);
      note t false)
    pages;
  remove_range t r ~from:(first + n)

(* Debug port: raw access that bypasses the access path entirely — no
   charge, no observers, no counters. Harness-only (the fault-injection
   subsystem's snapshot/restore machinery); never use it to model a
   program access. *)

let peek_bytes t ~addr ~len =
  if addr < 0 || len < 0 then invalid_arg "Memsim.peek_bytes";
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let p = a lsr page_bits in
    let poff = a land page_mask in
    let chunk = min (len - !i) (page_size - poff) in
    (match Hashtbl.find_opt t.pages p with
    | Some page -> Bytes.blit page poff b !i chunk
    | None ->
        if not (page_in_ranges t p) then fault a chunk "unmapped (peek)";
        Bytes.fill b !i chunk '\000');
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

let peek_image t ~addr ~size =
  let img = Page_image.create size in
  copy_out t ~addr ~count:false ~what:"Memsim.peek_image" img;
  img

let poke_image t ~addr img =
  copy_in t ~addr ~count:false ~what:"Memsim.poke_image" img

(* Typed facade (Kinds discipline, see Nvmpi_addr.Kinds): the public
   signature takes typed virtual addresses; the wrappers are zero-cost
   coercions over the int-based engine above. *)

module Vaddr = Nvmpi_addr.Kinds.Vaddr

let map t ~addr:(a : Vaddr.t) ~size = map t ~addr:(a :> int) ~size
let unmap t ~addr:(a : Vaddr.t) = unmap t ~addr:(a :> int)
let drop_zero_page t (a : Vaddr.t) = drop_zero_page t (a :> int)
let is_mapped t (a : Vaddr.t) = is_mapped t (a :> int)
let mappings t = List.map (fun (a, s) -> (Vaddr.v a, s)) (mappings t)
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
let extract t ~addr:(a : Vaddr.t) img = extract t ~addr:(a :> int) img
let evict t ~addr:(a : Vaddr.t) img = evict t ~addr:(a :> int) img
let peek_image t ~addr:(a : Vaddr.t) ~size = peek_image t ~addr:(a :> int) ~size
let poke_image t ~addr:(a : Vaddr.t) img = poke_image t ~addr:(a :> int) img
