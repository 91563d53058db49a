(** An NVRegion mapped into a simulated address space.

    A region is a consecutive chunk of the NV-space data area, mapped at
    the base of an NV segment. All header and root operations go through
    the simulated memory, so they observe exactly what a program on the
    simulated machine would. *)

type t

exception Out_of_region_memory of { rid : Nvmpi_addr.Kinds.Rid.t; requested : int }

val make :
  mem:Nvmpi_memsim.Memsim.t ->
  rid:Nvmpi_addr.Kinds.Rid.t ->
  base:Nvmpi_addr.Kinds.Vaddr.t ->
  size:int ->
  t
(** Wraps an already-mapped range as a region handle. Used by the
    manager; library users obtain regions from
    {!Manager.open_region}. *)

val rid : t -> Nvmpi_addr.Kinds.Rid.t
val base : t -> Nvmpi_addr.Kinds.Vaddr.t
val size : t -> int
val mem : t -> Nvmpi_memsim.Memsim.t

val addr_of_offset : t -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** Absolute address of an intra-region offset. Raises
    [Invalid_argument] if the offset is outside the region. *)

val offset_of_addr : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
(** Inverse of {!addr_of_offset}. *)

val contains : t -> Nvmpi_addr.Kinds.Vaddr.t -> bool

val check_header : t -> unit
(** Validates magic and recorded region ID against the handle.
    @raise Failure on mismatch (a corrupted or mis-mapped image). *)

(** {1 Persisted heap cursor} *)

val heap_top : t -> int
(** Current bump-allocation cursor (an intra-region offset). *)

val set_heap_top : t -> int -> unit

val alloc : t -> ?align:int -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** [alloc t n] bump-allocates [n] bytes from the region heap and
    returns the {e absolute address} of the block, aligned to [align]
    (default 8). The cursor is persisted in the region header, so
    allocation state survives close/reopen.
    @raise Out_of_region_memory when the region is full. *)

(** {1 Named roots}

    Roots are stored as intra-region offsets, hence position
    independent. *)

val set_root : t -> ?tag:int -> string -> Nvmpi_addr.Kinds.Vaddr.t -> unit
(** [set_root t name addr] records [addr] (an absolute address inside
    the region) under [name]. Replaces an existing root of the same
    name. [tag] is an optional type attribute stored alongside.
    @raise Invalid_argument if the name exceeds 31 bytes, the address is
    outside the region, or the root table is full. *)

val root : t -> string -> Nvmpi_addr.Kinds.Vaddr.t option
(** Absolute address of the named root under the current mapping. *)

val root_tag : t -> string -> int option
val roots : t -> (string * Nvmpi_addr.Kinds.Vaddr.t) list
(** All roots as [(name, absolute address)], in table order. *)
