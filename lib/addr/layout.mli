(** NV-space layout: the bit-level partitioning of the simulated virtual
    address space described in Section 4.3 (Figures 6 and 7) of the paper.

    The top of the virtual address space — every address whose leading [l1]
    bits are all ones — is reserved as the {e NV space}. The NV space holds
    three areas:

    - the {e data area}: equal-sized NV segments, each hosting at most one
      NVRegion. A data-area address decomposes as
      [ones(l1) | nvbase(l2) | offset(l3)], and the two leading bits of the
      [nvbase] field are the flagging bits ["10"] or ["11"];
    - the {e base table}: a direct-mapped table from region ID to [nvbase],
      flagged by a single bit at position [l4 + log2(base entry size)];
    - the {e RID table}: a direct-mapped table from [nvbase] to region ID,
      occupying the low part of the NV space.

    Entry addresses in both tables are pure bit transformations of the key
    (no hashing, no indirection), which is what makes RIV conversions cheap.

    The paper uses 64-bit words; the simulated machine uses [word_bits]
    (62 by default, so that addresses are non-negative native OCaml ints).
    All constraints from the paper are re-instantiated at that width and
    checked by {!v}. *)

type t = private {
  word_bits : int;  (** total virtual-address width in bits *)
  l1 : int;  (** leading all-ones bits marking the NV space *)
  l2 : int;  (** bits of the [nvbase] field (segment number) *)
  l3 : int;  (** bits of the byte offset within an NV segment *)
  l4 : int;  (** bits of an NVRegion ID *)
}

val v :
  ?word_bits:int -> l1:int -> l2:int -> l3:int -> l4:int -> unit ->
  (t, string) result
(** [v ~l1 ~l2 ~l3 ~l4 ()] builds and validates a layout.
    [word_bits] defaults to 62. *)

val v_exn :
  ?word_bits:int -> l1:int -> l2:int -> l3:int -> l4:int -> unit -> t
(** Like {!v} but raises [Invalid_argument] on an invalid layout. *)

val default : t
(** [{word_bits = 62; l1 = 4; l2 = 26; l3 = 32; l4 = 30}]: 4 GiB segments,
    2^25 concurrently loadable regions, 2^30 - 1 region IDs. *)

val small : t
(** A reduced layout ([word_bits = 30], 1 MiB segments) used by tests that
    want to exercise boundary conditions exhaustively. *)

val large_segments : t
(** A layout with 64 GiB segments, analogous to the paper's
    [{L1=2; L2=24; L3=38; L4=58}] example rescaled to 62 bits. *)

val pp : Format.formatter -> t -> unit

(** {1 Derived constants} *)

val nv_bits : t -> int
(** Bits of an offset within the NV space ([word_bits - l1]). *)

val nv_start : t -> int
(** Lowest NV-space address (top [l1] bits ones, rest zero). *)

val segment_size : t -> int
(** Bytes per NV segment ([2^l3]). *)

val data_nvbase_min : t -> int
(** Smallest [nvbase] belonging to the data area ([2^(l2-1)], i.e. the
    leading flag bit of the [nvbase] field set). *)

val usable_segments : t -> int
(** Number of NV segments in the data area ([2^(l2-1)]). *)

val max_rid : t -> int
(** Largest valid region ID ([2^l4 - 1]); ID 0 is reserved as "no region". *)

val rid_entry_bytes : t -> int
(** Size of one RID-table entry, rounded to a power of two. *)

val base_entry_bytes : t -> int
(** Size of one base-table entry, rounded to a power of two. *)

val table_virtual_bytes : t -> int
(** Total virtual address space consumed by the two tables
    (paper: [2^L4 * ceil(L2/8) + 2^L2 * ceil(L4/8)], with entry sizes
    rounded to powers of two here). *)

val physical_overhead_bytes : t -> regions:int -> int
(** Physical memory consumed by table entries for [regions] open regions. *)

(** {1 Address classification} *)

val in_nv_space : t -> int -> bool
(** True iff the top [l1] bits of the address are all ones. *)

val is_volatile : t -> int -> bool
(** Negation of {!in_nv_space} (the DRAM part of the address space). *)

val is_data_addr : t -> int -> bool
(** True iff the address lies in the data area of the NV space. *)

val is_rid_table_addr : t -> int -> bool
val is_base_table_addr : t -> int -> bool

(** {1 Field extraction (Figure 5/6)} *)

val nvbase : t -> int -> int
(** [nvbase t a] is the [l2]-bit segment-number field of NV-space address
    [a]. *)

val get_base : t -> int -> int
(** [get_base t a] masks off the low [l3] bits: the base address of the NV
    segment containing [a] (paper's [getBase]). *)

val seg_offset : t -> int -> int
(** [seg_offset t a] is the low-[l3]-bits offset of [a] in its segment. *)

val segment_base_of_nvbase : t -> int -> int
(** Rebuilds a segment base address from an [nvbase] field value. *)

(** {1 Direct-mapped table addressing (Figure 7)} *)

val rid_entry_addr : t -> int -> int
(** [rid_entry_addr t a] is the address of the RID-table entry for the
    segment containing [a]. The same bit transformation applies to the
    segment base and to any address within the segment. *)

val base_entry_addr : t -> rid:int -> int
(** [base_entry_addr t ~rid] is the address of the base-table entry for
    region [rid]. *)

(** {1 RIV value packing (Figure 5)} *)

val riv_null : int
(** The null RIV value (region ID 0, offset 0). *)

val riv_pack : t -> rid:int -> offset:int -> int
(** [riv_pack t ~rid ~offset] packs a region ID and an intra-region offset
    into a single pointer-sized value. Requires [0 <= offset < 2^l3] and
    [1 <= rid <= max_rid t]. *)

val riv_rid : t -> int -> int
(** Region-ID field of a packed RIV value. *)

val riv_offset : t -> int -> int
(** Offset field of a packed RIV value. *)
