type stats = { mutable loads : int; mutable stores : int; mutable pages : int }

exception Fault of { addr : int; size : int; reason : string }

module Metrics = Nvmpi_obs.Metrics

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

type t = {
  page_bits : int;
  page_mask : int; (* page_size - 1, precomputed for the access path *)
  pages : (int, Bytes.t) Hashtbl.t;
  mutable ranges : (int * int) array; (* (first_page, last_page) sorted *)
  (* Observers live in a growable array: O(1) amortized registration and
     index-loop dispatch with no list cells on the notify path. [obs0]
     mirrors slot 0 so the common single-observer machine pays one
     direct closure call per access. *)
  mutable obs : observer array;
  mutable n_obs : int;
  mutable obs0 : observer;
  (* Single-entry TLB: the last page touched through the access path.
     Invalidated by the operations that drop pages: unmap and
     drop_zero_page. *)
  mutable tlb_page : int; (* -1 = invalid *)
  mutable tlb_bytes : Bytes.t;
  stats : stats;
  (* Counter cells resolved once at creation: the access path runs on
     every simulated load/store, so it must not pay a registry lookup. *)
  c_loads : int ref;
  c_stores : int ref;
}

let create ?(page_bits = 12) ?metrics () =
  if page_bits < 4 || page_bits > 24 then invalid_arg "Memsim.create";
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    page_bits;
    page_mask = (1 lsl page_bits) - 1;
    pages = Hashtbl.create 1024;
    ranges = [||];
    obs = [||];
    n_obs = 0;
    obs0 = no_observer;
    tlb_page = -1;
    tlb_bytes = no_page;
    stats = { loads = 0; stores = 0; pages = 0 };
    c_loads = Metrics.counter metrics "mem.loads";
    c_stores = Metrics.counter metrics "mem.stores";
  }

let page_size t = 1 lsl t.page_bits
let stats t = t.stats

let fault addr size reason = raise (Fault { addr; size; reason })

(* Binary search: does page index [p] fall inside a mapped range? *)
let page_in_ranges t p =
  let ranges = t.ranges in
  let lo = ref 0 and hi = ref (Array.length ranges - 1) and found = ref false in
  while !lo <= !hi && not !found do
    let mid = (!lo + !hi) / 2 in
    let first, last = ranges.(mid) in
    if p < first then hi := mid - 1
    else if p > last then lo := mid + 1
    else found := true
  done;
  !found

let map t ~addr ~size =
  if addr < 0 || size <= 0 then invalid_arg "Memsim.map: bad range";
  let first = addr lsr t.page_bits in
  let last = (addr + size - 1) lsr t.page_bits in
  Array.iter
    (fun (f, l) ->
      if not (last < f || first > l) then
        invalid_arg
          (Printf.sprintf "Memsim.map: range at 0x%x overlaps existing mapping"
             addr))
    t.ranges;
  let ranges = Array.append t.ranges [| (first, last) |] in
  (* Ranges are disjoint, so ordering by first page is a total order;
     the monomorphic comparator avoids polymorphic compare. *)
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) ranges;
  t.ranges <- ranges

let unmap t ~addr =
  let first = addr lsr t.page_bits in
  let found = ref None in
  Array.iter
    (fun (f, l) -> if f = first then found := Some (f, l))
    t.ranges;
  match !found with
  | None ->
      invalid_arg (Printf.sprintf "Memsim.unmap: no mapping at 0x%x" addr)
  | Some (f, l) ->
      for p = f to l do
        if Hashtbl.mem t.pages p then begin
          Hashtbl.remove t.pages p;
          t.stats.pages <- t.stats.pages - 1
        end
      done;
      (* Drop the range in place: [f] is unique among disjoint ranges. *)
      let n = Array.length t.ranges in
      let out = Array.make (n - 1) (0, 0) in
      let j = ref 0 in
      Array.iter
        (fun ((rf, _) as r) ->
          if rf <> f then begin
            out.(!j) <- r;
            incr j
          end)
        t.ranges;
      t.ranges <- out;
      t.tlb_page <- -1;
      t.tlb_bytes <- no_page

let drop_zero_page t a =
  let p = a lsr t.page_bits in
  match Hashtbl.find_opt t.pages p with
  | Some page when is_zero page 0 (Bytes.length page) ->
      Hashtbl.remove t.pages p;
      t.stats.pages <- t.stats.pages - 1;
      if t.tlb_page = p then begin
        t.tlb_page <- -1;
        t.tlb_bytes <- no_page
      end
  | _ -> ()

let is_mapped t a = a >= 0 && page_in_ranges t (a lsr t.page_bits)

let mappings t =
  Array.to_list t.ranges
  |> List.map (fun (f, l) ->
         (f lsl t.page_bits, (l - f + 1) lsl t.page_bits))

let add_observer t f =
  if t.n_obs = Array.length t.obs then begin
    let grown = Array.make (max 4 (2 * t.n_obs)) no_observer in
    Array.blit t.obs 0 grown 0 t.n_obs;
    t.obs <- grown
  end;
  t.obs.(t.n_obs) <- f;
  if t.n_obs = 0 then t.obs0 <- f;
  t.n_obs <- t.n_obs + 1

let notify t write addr size =
  if write then begin
    t.stats.stores <- t.stats.stores + 1;
    incr t.c_stores
  end
  else begin
    t.stats.loads <- t.stats.loads + 1;
    incr t.c_loads
  end;
  let n = t.n_obs in
  if n = 1 then t.obs0 ~write ~addr ~size
  else if n > 1 then
    let obs = t.obs in
    for i = 0 to n - 1 do
      (Array.unsafe_get obs i) ~write ~addr ~size
    done

let materialize t p addr size =
  if not (page_in_ranges t p) then fault addr size "unmapped";
  let page = Bytes.make (t.page_mask + 1) '\000' in
  Hashtbl.add t.pages p page;
  t.stats.pages <- t.stats.pages + 1;
  page

let[@inline] get_page t addr size =
  let p = addr lsr t.page_bits in
  if p = t.tlb_page then t.tlb_bytes
  else begin
    let page =
      match Hashtbl.find t.pages p with
      | page -> page
      | exception Not_found -> materialize t p addr size
    in
    t.tlb_page <- p;
    t.tlb_bytes <- page;
    page
  end

let check_align addr size =
  if addr land (size - 1) <> 0 then fault addr size "misaligned"

let off t addr = addr land t.page_mask

let load8 t a =
  if a < 0 then fault a 1 "negative address";
  let page = get_page t a 1 in
  notify t false a 1;
  Char.code (Bytes.get page (a land t.page_mask))

let load16 t a =
  check_align a 2;
  let page = get_page t a 2 in
  notify t false a 2;
  Bytes.get_uint16_le page (a land t.page_mask)

let load32 t a =
  check_align a 4;
  let page = get_page t a 4 in
  notify t false a 4;
  Int32.to_int (Bytes.get_int32_le page (a land t.page_mask)) land 0xFFFFFFFF

let load64 t a =
  check_align a 8;
  let page = get_page t a 8 in
  notify t false a 8;
  Int64.to_int (Bytes.get_int64_le page (a land t.page_mask))

let store8 t a v =
  if a < 0 then fault a 1 "negative address";
  let page = get_page t a 1 in
  notify t true a 1;
  Bytes.set page (a land t.page_mask) (Char.chr (v land 0xFF))

let store16 t a v =
  check_align a 2;
  let page = get_page t a 2 in
  notify t true a 2;
  Bytes.set_uint16_le page (a land t.page_mask) (v land 0xFFFF)

let store32 t a v =
  check_align a 4;
  let page = get_page t a 4 in
  notify t true a 4;
  Bytes.set_int32_le page (a land t.page_mask) (Int32.of_int (v land 0xFFFFFFFF))

let store64 t a v =
  check_align a 8;
  let page = get_page t a 8 in
  notify t true a 8;
  Bytes.set_int64_le page (a land t.page_mask) (Int64.of_int v)

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

(* Fused entry points: the full access pipeline minus observer
   dispatch. A caller that *is* the sole observer — the machine's fused
   paths hold its timing model directly —
   performs the data access here and charges the cache model itself,
   skipping one closure indirection per access. [solo_observed] is the
   guard: it holds exactly when generic [load64] would have made a
   single direct [obs0] call, so fused + caller-side charge is
   observationally identical to the generic path. *)

let[@inline] solo_observed t = t.n_obs = 1

let[@inline] note t write =
  if write then begin
    t.stats.stores <- t.stats.stores + 1;
    incr t.c_stores
  end
  else begin
    t.stats.loads <- t.stats.loads + 1;
    incr t.c_loads
  end

let load8_fused t a =
  if a < 0 then fault a 1 "negative address";
  let page = get_page t a 1 in
  note t false;
  Char.code (Bytes.get page (a land t.page_mask))

let load16_fused t a =
  check_align a 2;
  let page = get_page t a 2 in
  note t false;
  Bytes.get_uint16_le page (a land t.page_mask)

let load32_fused t a =
  check_align a 4;
  let page = get_page t a 4 in
  note t false;
  Int32.to_int (Bytes.get_int32_le page (a land t.page_mask)) land 0xFFFFFFFF

let load64_fused t a =
  check_align a 8;
  let page = get_page t a 8 in
  note t false;
  Int64.to_int (Bytes.get_int64_le page (a land t.page_mask))

let store64_fused t a v =
  check_align a 8;
  let page = get_page t a 8 in
  note t true;
  Bytes.set_int64_le page (a land t.page_mask) (Int64.of_int v)

let load_sized_fused t ~size a =
  match size with
  | 1 -> load8_fused t a
  | 2 -> load16_fused t a
  | 4 -> load32_fused t a
  | 8 -> load64_fused t a
  | _ -> invalid_arg "Memsim.load_sized_fused"

(* Bulk transfers copy raw page chunks (so arbitrary byte patterns
   roundtrip exactly, including 64-bit words that would overflow a native
   int) and report one observer access per chunk; the timing model
   charges every cache line the chunk touches. *)

let blit_from_bytes t ~addr b =
  let len = Bytes.length b in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let page = get_page t a 1 in
    let poff = off t a in
    let chunk = min (len - !i) (page_size t - poff) in
    Bytes.blit b !i page poff chunk;
    notify t true a chunk;
    i := !i + chunk
  done

let blit_to_bytes t ~addr ~len =
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let page = get_page t a 1 in
    let poff = off t a in
    let chunk = min (len - !i) (page_size t - poff) in
    Bytes.blit page poff b !i chunk;
    notify t false a chunk;
    i := !i + chunk
  done;
  b

let fill t ~addr ~len c =
  for i = 0 to len - 1 do
    store8 t (addr + i) (Char.code c)
  done

(* Whole-image copies, slot by slot: slot [i] of an image at the
   page-aligned [addr] is memory page [addr / page + i]. [count] bumps
   one load or store per slot, present or not, as a chunked blit of the
   flat image does; the debug-port forms pass [false]. Neither
   direction calls observers or touches the TLB: a page it writes is
   either already in the table (and overwritten in place) or new. *)

let image_first_page t ~addr ~what =
  if t.page_bits <> Page_image.page_bits then
    invalid_arg (what ^ ": memory page size is not the image page size");
  if addr < 0 || addr land t.page_mask <> 0 then
    invalid_arg (what ^ ": base not page-aligned");
  addr lsr t.page_bits

let check_slot_mapped t p len =
  if not (page_in_ranges t p) then
    fault (p lsl t.page_bits) len "unmapped (image copy)"

let copy_in t ~addr ~count ~what (img : Page_image.t) =
  let first = image_first_page t ~addr ~what in
  Array.iteri
    (fun i src ->
      let p = first + i and len = Page_image.slot_len img i in
      check_slot_mapped t p len;
      (match Hashtbl.find_opt t.pages p with
      | Some dst ->
          if src == no_page then Bytes.fill dst 0 len '\000'
          else Bytes.blit src 0 dst 0 len
      | None ->
          if src != no_page then begin
            Hashtbl.add t.pages p (Bytes.copy src);
            t.stats.pages <- t.stats.pages + 1
          end);
      if count then note t true)
    img.Page_image.pages

let copy_out t ~addr ~count ~what (img : Page_image.t) =
  let first = image_first_page t ~addr ~what in
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
              let fresh = Bytes.make Page_image.page_size '\000' in
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

(* Debug port: raw access that bypasses the access pipeline entirely —
   no observers, no load/store statistics or counters. Harness-only
   (the fault-injection subsystem's snapshot/restore machinery); never
   use it to model a program access. *)

let peek_bytes t ~addr ~len =
  if addr < 0 || len < 0 then invalid_arg "Memsim.peek_bytes";
  let b = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let p = a lsr t.page_bits in
    let poff = off t a in
    let chunk = min (len - !i) (page_size t - poff) in
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
    let page = get_page t a 1 in
    let poff = off t a in
    let chunk = min (len - !i) (page_size t - poff) in
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
let load64_fused t (a : Vaddr.t) = load64_fused t (a :> int)
let store64_fused t (a : Vaddr.t) v = store64_fused t (a :> int) v
let load_sized_fused t ~size (a : Vaddr.t) = load_sized_fused t ~size (a :> int)
let blit_from_bytes t ~addr:(a : Vaddr.t) b = blit_from_bytes t ~addr:(a :> int) b
let blit_to_bytes t ~addr:(a : Vaddr.t) ~len = blit_to_bytes t ~addr:(a :> int) ~len
let fill t ~addr:(a : Vaddr.t) ~len c = fill t ~addr:(a :> int) ~len c
let peek_bytes t ~addr:(a : Vaddr.t) ~len = peek_bytes t ~addr:(a :> int) ~len
let poke_bytes t ~addr:(a : Vaddr.t) b = poke_bytes t ~addr:(a :> int) b
let install t ~addr:(a : Vaddr.t) img = install t ~addr:(a :> int) img
let extract t ~addr:(a : Vaddr.t) img = extract t ~addr:(a :> int) img
let peek_image t ~addr:(a : Vaddr.t) ~size = peek_image t ~addr:(a :> int) ~size
let poke_image t ~addr:(a : Vaddr.t) img = poke_image t ~addr:(a :> int) img
