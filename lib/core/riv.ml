(** Region-ID-in-Value (Section 4.3): the slot stores
    [{region ID | offset}] packed into one word. Conversions go through
    the direct-mapped RID and base tables maintained by {!Nvspace} —
    a few bit transformations plus one table load each way. Supports
    both intra- and cross-region targets. *)

module K = Nvmpi_addr.Kinds
module Riv = K.Riv

let name = "riv"
let slot_size = 8
let cross_region = true
let position_independent = true

(* Figure 8, persistentX encode (x = p): Nvspace.p2x is addr2id plus
   the Figure 5 packing. *)
let store m ~holder target =
  Machine.bump m Machine.Cell.riv_stores "repr.riv.stores";
  Machine.store64 m holder (Nvspace.p2x m.Machine.nvspace target :> int)

(* Figure 8, persistentX decode (p = x): Nvspace.x2p is the field
   extraction, id2addr and the final or. *)
let load m ~holder =
  Machine.bump m Machine.Cell.riv_loads "repr.riv.loads";
  Nvspace.x2p m.Machine.nvspace (Riv.v (Machine.load64 m holder))
