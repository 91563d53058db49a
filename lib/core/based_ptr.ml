(** Based pointers (Section 5, Microsoft C++ [__based]): the slot stores
    the offset from a base variable that names one region and lives in a
    register, so a dereference costs one add. Fastest after normal
    pointers, but confined to the single region the base names, with the
    usability problems Section 5 catalogues. *)

module Vaddr = Nvmpi_addr.Kinds.Vaddr

let name = "based"
let slot_size = 8
let cross_region = false
let position_independent = true

let base_of m =
  let b = m.Machine.based_base in
  if Vaddr.is_null b then
    failwith "based pointer used with no based region set";
  b

let store m ~holder (target : Vaddr.t) =
  if Vaddr.is_null target then begin
    (* Encoding NULL is base-independent (Figure 8 stores the constant),
       so it must work before any based region is selected. *)
    Machine.bump m Machine.Cell.based_stores "repr.based.stores";
    Machine.store64 m holder 0
  end
  else begin
    let b = base_of m in
    (* Section 4.4's dynamic check, before any cycle or counter: a
       faulting store is observationally free. *)
    (match Machine.region_of_addr m target with
    | Some r when Vaddr.equal (Nvmpi_nvregion.Region.base r) b -> ()
    | _ -> raise (Machine.Cross_region_store { holder; target; repr = name }));
    Machine.bump m Machine.Cell.based_stores "repr.based.stores";
    Machine.alu m 1;
    Machine.store64 m holder (Vaddr.offset_in target ~base:b)
  end

let load m ~holder =
  Machine.bump m Machine.Cell.based_loads "repr.based.loads";
  let b = base_of m in
  let v = Machine.load64 m holder in
  Machine.alu m 1;
  if v = 0 then Vaddr.null else Vaddr.add b v
