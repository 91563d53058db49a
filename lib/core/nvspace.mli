(** The RIV runtime: the two direct-mapped lookup tables of Section 4.3.

    Table entries live in simulated NV-space memory at addresses computed
    by pure bit transformations ({!Nvmpi_addr.Layout.rid_entry_addr} and
    {!Nvmpi_addr.Layout.base_entry_addr}); a conversion is therefore a
    couple of ALU operations plus one table load, which is exactly the
    cost profile the paper claims for RIV.

    ALU work is charged explicitly to the timing model; the table loads
    and stores are charged organically by the attached cache model. *)

type t

exception Unknown_region of { rid : Nvmpi_addr.Kinds.Rid.t }
exception Not_nv_data of { addr : Nvmpi_addr.Kinds.Vaddr.t }

val create :
  layout:Nvmpi_addr.Layout.t ->
  mem:Nvmpi_memsim.Memsim.t ->
  timing:Nvmpi_cachesim.Timing.t ->
  ?metrics:Nvmpi_obs.Metrics.t ->
  unit ->
  t
(** Creates the runtime and maps the two table areas (demand-paged, so
    only touched entries consume backing memory). Conversions report
    into [metrics]: [riv.x2p] / [riv.p2x] per conversion (nulls
    included) and [riv.base_table_loads] / [riv.rid_table_loads] per
    table access. *)

val layout : t -> Nvmpi_addr.Layout.t

val register_region :
  t -> rid:Nvmpi_addr.Kinds.Rid.t -> base:Nvmpi_addr.Kinds.Vaddr.t -> unit
(** Called when a region is opened at segment base [base]: writes the
    RID-table entry (segment base -> ID) and the base-table entry
    (ID -> nvbase). *)

val unregister_region :
  t -> rid:Nvmpi_addr.Kinds.Rid.t -> base:Nvmpi_addr.Kinds.Vaddr.t -> unit
(** Zeroes both entries when the region is closed, then releases each
    table page that is left all zero
    (see {!Nvmpi_memsim.Memsim.drop_zero_page}). *)

val id2addr : t -> Nvmpi_addr.Kinds.Rid.t -> Nvmpi_addr.Kinds.Vaddr.t
(** [id2addr t rid] is the base address of the open region [rid]
    (Figure 5 (b)). Charges: entry-address computation (2 ALU) + one
    table load + nothing else.
    @raise Unknown_region if the table holds no entry for [rid]. *)

val addr2id : t -> Nvmpi_addr.Kinds.Vaddr.t -> Nvmpi_addr.Kinds.Rid.t
(** [addr2id t a] is the region ID owning data-area address [a]
    (Figure 5 (c)). Charges: 2 ALU + one table load.
    @raise Not_nv_data if [a] is not a data-area address.
    @raise Unknown_region if the segment has no registered region. *)

val get_base : t -> Nvmpi_addr.Kinds.Vaddr.t -> Nvmpi_addr.Kinds.Vaddr.t
(** [get_base t a] masks the low [l3] bits of [a] (1 ALU). *)

val x2p : t -> Nvmpi_addr.Kinds.Riv.t -> Nvmpi_addr.Kinds.Vaddr.t
(** [x2p t v] converts a packed RIV value to an absolute address —
    Figure 8's [persistentX] decode, composed from
    {!Nvmpi_addr.Kinds.rid_of_riv}/{!Nvmpi_addr.Kinds.offset_of_riv}
    (unpack, 2 ALU), the base-table load ({!id2addr}) and the final or
    (1 ALU). Null maps to null. *)

val p2x : t -> Nvmpi_addr.Kinds.Vaddr.t -> Nvmpi_addr.Kinds.Riv.t
(** [p2x t a] converts an absolute address to a packed RIV value —
    Figure 8's [persistentX] encode: {!addr2id}, offset extraction
    ({!Nvmpi_addr.Kinds.seg_offset}, 1 ALU), pack
    ({!Nvmpi_addr.Kinds.riv_of_rid_off}, 2 ALU). Null maps to null. *)

(** {1 Cost-phase instrumentation}

    Used by the RIV overhead-breakdown experiment (Section 6.2): cycles
    spent in each of the three phases of a RIV read. *)

type phases = {
  mutable extract_cycles : int;  (** getting ID and offset fields *)
  mutable id2addr_cycles : int;  (** computing the base-table entry address *)
  mutable final_cycles : int;  (** reading the base and adding the offset *)
}

val phases : t -> phases
val reset_phases : t -> unit
