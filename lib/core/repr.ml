(** Registry of all pointer representations evaluated in the paper. *)

type kind =
  | Normal  (** absolute virtual addresses (baseline) *)
  | Off_holder  (** self-relative offsets (Section 4.2) *)
  | Riv  (** region ID in value (Section 4.3) *)
  | Fat  (** [{regionID; offset}] struct + hashtable *)
  | Fat_cached  (** fat pointer with [lastID]/[lastAddr] cache *)
  | Based  (** offset from a register-resident base variable *)
  | Swizzle  (** swizzled at load, unswizzled at close *)
  | Packed_fat
      (** the intro's strawman: RIV's packed format translated through
          the fat-pointer hashtable instead of direct-mapped tables *)
  | Hw_oid
      (** hypothetical hardware-assisted translation (related work:
          Wang et al., MICRO 2017), charged at a fixed TLB-like hit *)

let all = [ Normal; Off_holder; Riv; Fat; Fat_cached; Based; Swizzle;
            Packed_fat; Hw_oid ]

let of_string = function
  | "normal" -> Some Normal
  | "off-holder" | "offholder" | "off_holder" -> Some Off_holder
  | "riv" -> Some Riv
  | "fat" -> Some Fat
  | "fat-cached" | "fat_cached" -> Some Fat_cached
  | "based" -> Some Based
  | "swizzle" | "swizzling" -> Some Swizzle
  | "packed-fat" | "packed_fat" -> Some Packed_fat
  | "hw-oid" | "hw_oid" -> Some Hw_oid
  | _ -> None

let m : kind -> (module Repr_sig.S) = function
  | Normal -> (module Normal_ptr)
  | Off_holder -> (module Off_holder)
  | Riv -> (module Riv)
  | Fat -> (module Fat)
  | Fat_cached -> (module Fat_cached)
  | Based -> (module Based_ptr)
  | Swizzle -> (module Swizzle)
  | Packed_fat -> (module Packed_fat)
  | Hw_oid -> (module Hw_oid)

(* Per-kind attributes are the module's own constants: [m] is the one
   table a representation is registered in. *)
let to_string k =
  let (module P : Repr_sig.S) = m k in
  P.name

let slot_size k =
  let (module P : Repr_sig.S) = m k in
  P.slot_size

let cross_region k =
  let (module P : Repr_sig.S) = m k in
  P.cross_region

let position_independent k =
  let (module P : Repr_sig.S) = m k in
  P.position_independent

let pp ppf k = Format.pp_print_string ppf (to_string k)

(** Implicit self-contained representations per Section 4.1: position
    independent, no larger than a normal pointer, usable like a normal
    pointer. *)
let implicit_self_contained k =
  position_independent k && slot_size k = 8
  && match k with Based -> false (* needs an external base variable *)
     | _ -> true
