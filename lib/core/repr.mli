(** Registry of all pointer representations evaluated in the paper
    (plus the two ablation-only ones), as both a plain enumeration and
    first-class {!Repr_sig.S} modules. *)

type kind =
  | Normal  (** absolute virtual addresses (baseline) *)
  | Off_holder  (** self-relative offsets (Section 4.2) *)
  | Riv  (** region ID in value (Section 4.3) *)
  | Fat  (** [{regionID; offset}] struct + hashtable *)
  | Fat_cached  (** fat pointer with [lastID]/[lastAddr] cache *)
  | Based  (** offset from a register-resident base variable *)
  | Swizzle  (** swizzled at load, unswizzled at close *)
  | Packed_fat
      (** the intro's strawman: RIV's packed format, hashtable
          translation (ablations only) *)
  | Hw_oid
      (** hypothetical hardware-assisted translation (ablations only) *)

val all : kind list
val to_string : kind -> string
val of_string : string -> kind option
val pp : Format.formatter -> kind -> unit

val m : kind -> (module Repr_sig.S)
(** The representation as a first-class module. This is the one per-kind
    table: {!to_string}, {!slot_size}, {!cross_region} and
    {!position_independent} read the module's own constants. *)

val slot_size : kind -> int
val cross_region : kind -> bool
val position_independent : kind -> bool

val implicit_self_contained : kind -> bool
(** The Section 4.1 concept: position independent, pointer-sized, and
    usable with no external base variable. True exactly for off-holder,
    RIV, and the packed translations sharing RIV's format. *)
