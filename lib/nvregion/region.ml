module Memsim = Nvmpi_memsim.Memsim
module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Rid = K.Rid

type t = { rid : Rid.t; base : Vaddr.t; size : int; mem : Memsim.t }

exception Out_of_region_memory of { rid : Rid.t; requested : int }

let make ~mem ~rid ~base ~size = { rid; base; size; mem }
let rid t = t.rid
let base t = t.base
let size t = t.size
let mem t = t.mem

let addr_of_offset t off =
  if off < 0 || off >= t.size then
    invalid_arg
      (Printf.sprintf "Region.addr_of_offset: offset 0x%x outside region %d"
         off
         (t.rid :> int));
  Vaddr.add t.base off

let offset_of_addr t a =
  let off = Vaddr.offset_in a ~base:t.base in
  if off < 0 || off >= t.size then
    invalid_arg
      (Printf.sprintf "Region.offset_of_addr: 0x%x outside region %d"
         (a :> int)
         (t.rid :> int));
  off

let contains t a =
  let off = Vaddr.offset_in a ~base:t.base in
  off >= 0 && off < t.size

let check_header t =
  let m = Memsim.load64 t.mem (Vaddr.add t.base Header.off_magic) in
  if m <> Header.magic then
    failwith (Printf.sprintf "Region %d: bad magic 0x%x" (t.rid :> int) m);
  let r = Memsim.load64 t.mem (Vaddr.add t.base Header.off_rid) in
  if r <> (t.rid :> int) then
    failwith
      (Printf.sprintf "Region %d: header records rid %d" (t.rid :> int) r)

let heap_top t = Memsim.load64 t.mem (Vaddr.add t.base Header.off_heap_top)

let set_heap_top t v =
  Memsim.store64 t.mem (Vaddr.add t.base Header.off_heap_top) v

let alloc t ?(align = 8) n =
  if n <= 0 then invalid_arg "Region.alloc: non-positive size";
  let top = heap_top t in
  let start = Nvmpi_addr.Bitops.align_up top align in
  if start + n > t.size then
    raise (Out_of_region_memory { rid = t.rid; requested = n });
  set_heap_top t (start + n);
  Vaddr.add t.base start


let nroots t = Memsim.load64 t.mem (Vaddr.add t.base Header.off_nroots)
let set_nroots t v = Memsim.store64 t.mem (Vaddr.add t.base Header.off_nroots) v

let read_name t i =
  let entry = Vaddr.add t.base (Header.root_entry_off i) in
  let b = Buffer.create Header.root_name_bytes in
  (try
     for j = 0 to Header.root_name_bytes - 1 do
       let c = Memsim.load8 t.mem (Vaddr.add entry j) in
       if c = 0 then raise Exit;
       Buffer.add_char b (Char.chr c)
     done
   with Exit -> ());
  Buffer.contents b

(* Does root [i] hold [name]? Compares as it loads: the same loads as
   [read_name], up to the terminator, with nothing allocated. *)
let name_is t i name =
  let entry = Vaddr.add t.base (Header.root_entry_off i) in
  let len = String.length name in
  let rec go j same =
    if j = Header.root_name_bytes then same && j = len
    else
      let c = Memsim.load8 t.mem (Vaddr.add entry j) in
      if c = 0 then same && j = len
      else go (j + 1) (same && j < len && Char.code name.[j] = c)
  in
  go 0 true

let find_index t name =
  let n = nroots t in
  let rec go i =
    if i >= n then None else if name_is t i name then Some i else go (i + 1)
  in
  go 0

let set_root t ?(tag = 0) name addr =
  if String.length name >= Header.root_name_bytes then
    invalid_arg "Region.set_root: name too long";
  if String.length name = 0 then invalid_arg "Region.set_root: empty name";
  if not (contains t addr) then
    invalid_arg "Region.set_root: address outside region";
  let i =
    match find_index t name with
    | Some i -> i
    | None ->
        let n = nroots t in
        if n >= Header.max_roots then
          invalid_arg "Region.set_root: root table full";
        set_nroots t (n + 1);
        n
  in
  let entry = Vaddr.add t.base (Header.root_entry_off i) in
  for j = 0 to Header.root_name_bytes - 1 do
    let c = if j < String.length name then Char.code name.[j] else 0 in
    Memsim.store8 t.mem (Vaddr.add entry j) c
  done;
  (* Roots are persisted as intra-region offsets — the off-holder idea
     applied to the structure's entry point — hence position
     independent. *)
  Memsim.store64 t.mem
    (Vaddr.add entry Header.root_off_in_entry)
    (Vaddr.offset_in addr ~base:t.base);
  Memsim.store64 t.mem (Vaddr.add entry Header.root_tag_in_entry) tag

let root t name =
  match find_index t name with
  | None -> None
  | Some i ->
      let entry = Vaddr.add t.base (Header.root_entry_off i) in
      Some
        (Vaddr.add t.base
           (Memsim.load64 t.mem (Vaddr.add entry Header.root_off_in_entry)))

let root_tag t name =
  match find_index t name with
  | None -> None
  | Some i ->
      let entry = Vaddr.add t.base (Header.root_entry_off i) in
      Some (Memsim.load64 t.mem (Vaddr.add entry Header.root_tag_in_entry))

let roots t =
  List.init (nroots t) (fun i ->
      let entry = Vaddr.add t.base (Header.root_entry_off i) in
      ( read_name t i,
        Vaddr.add t.base
          (Memsim.load64 t.mem (Vaddr.add entry Header.root_off_in_entry)) ))
