(** Pointer swizzling (Section 5): pointers are persisted in a
    position-independent packed [{regionID | offset}] form; when a data
    structure is loaded, a one-time pass converts every slot in place to
    an absolute address (swizzling), and a closing pass converts them
    back (unswizzling). Between the two passes, dereferences are as fast
    as normal pointers — but the passes traverse the whole structure, and
    a crash between them leaves the structure position-dependent.

    The conversion passes use the direct-mapped NV-space tables for the
    ID/base translations (the cheapest mapping available); the cost that
    makes swizzling expensive is structural — every slot is read,
    converted and written once per direction.

    [store]/[load] are the steady-state (swizzled) operations; the
    per-slot conversion passes are driven by each data structure's
    walker. *)

module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Riv = K.Riv

let name = "swizzle"
let slot_size = 8
let cross_region = true
let position_independent = false (* in its in-memory, swizzled form *)

let store m ~holder (target : Vaddr.t) =
  Machine.bump m Machine.Cell.swizzle_stores "repr.swizzle.stores";
  Machine.store64 m holder (target :> int)

let load m ~holder =
  Machine.bump m Machine.Cell.swizzle_loads "repr.swizzle.loads";
  Vaddr.v (Machine.load64 m holder)

(** [store_packed m ~holder target] writes the persisted (unswizzled)
    form directly; used when producing the on-NVM form a freshly opened
    structure starts from. *)
let store_packed m ~holder target =
  Machine.bump m Machine.Cell.swizzle_packed_stores "swizzle.packed_stores";
  Machine.store64 m holder (Nvspace.p2x m.Machine.nvspace target :> int)

(** [swizzle_slot m ~holder] converts the packed slot at [holder] to an
    absolute address in place and returns that address (null for a
    stored null). *)
let swizzle_slot m ~holder =
  Machine.bump m Machine.Cell.swizzle_swizzled "swizzle.swizzled_slots";
  let v = Riv.v (Machine.load64 m holder) in
  let a = Nvspace.x2p m.Machine.nvspace v in
  Machine.store64 m holder (a :> int);
  a

(** [unswizzle_slot m ~holder] converts the absolute slot at [holder]
    back to the packed persisted form and returns the absolute target it
    held (so a walker can keep traversing). *)
let unswizzle_slot m ~holder =
  Machine.bump m Machine.Cell.swizzle_unswizzled "swizzle.unswizzled_slots";
  let a = Vaddr.v (Machine.load64 m holder) in
  Machine.store64 m holder (Nvspace.p2x m.Machine.nvspace a :> int);
  a
