(** Shared node plumbing for the persistent data structures: round-robin
    multi-region allocation, payload reads/writes, key accesses, and the
    per-structure metadata block each structure anchors at a named
    NVRoot.

    Nodes are allocated either directly from region heaps ([`Plain]) or
    as 128-byte wrapped objects from a transactional object store
    ([`Wrapped], the PMEM.IO-like mode of Section 6.3). *)

type alloc_mode =
  | Plain of Nvmpi_nvregion.Region.t array
  | Wrapped of Nvmpi_tx.Objstore.t array

type t = {
  machine : Core.Machine.t;
  mode : alloc_mode;
  payload : int;  (** payload bytes carried by each node *)
  durability : Core.Durability.t;
      (** persistence discipline for structures over this node source:
          only [Traverse] (link-and-persist; see {!Durable} and
          docs/DURABLE.md) adds persistence actions to structure code;
          under [Eager] and [Snapshot _] it runs the legacy plain
          accesses *)
  mutable next_region : int;  (** round-robin cursor *)
}

val make :
  ?durability:Core.Durability.t ->
  Core.Machine.t ->
  mode:alloc_mode ->
  payload:int ->
  t
(** [durability] defaults to the machine's discipline; the override
    lets a recovery machine attach a structure under the discipline it
    was built with. *)

val regions : t -> Nvmpi_nvregion.Region.t array
(** The regions underlying either mode, in round-robin order. *)

val home_region : t -> Nvmpi_nvregion.Region.t
(** The first region: metadata and roots live here. *)

val alloc_node : t -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** [alloc_node t size] allocates [size] bytes for a node in the next
    region of the round-robin rotation and returns its absolute
    address. *)

val alloc_in_home : t -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** Allocation pinned to the home region (metadata, bucket tables). *)

val touch : t -> unit
(** Per-node-visit bookkeeping charge; a no-op in [`Plain] mode, the
    PMEM.IO accessor overhead in [`Wrapped] mode. *)

(** {1 Payload} *)

val write_payload : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> seed:int -> unit
(** Fills the [payload]-byte area at [addr] with words derived from
    [seed]. *)

val read_payload : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> int
(** Reads the payload area word by word (charged) and returns a
    checksum. *)

val payload_checksum : payload:int -> seed:int -> int
(** The checksum {!read_payload} returns for an intact payload written
    with [seed]. *)

val copy_payload :
  t -> src:Nvmpi_addr.Kinds.Vaddr.t -> dst:Nvmpi_addr.Kinds.Vaddr.t -> unit
(** Byte-for-byte copy of a payload area (node-replacing operations);
    preserves in-place mutations that [write_payload] would not. *)

(** {1 Structure metadata blocks}

    A metadata block is a small region-resident record:
    [kind | payload_size | aux | reserved | head slot (16 bytes)].
    The named NVRoot points at it; the head slot is a pointer slot in
    the structure's representation. *)

val meta_bytes : int
val head_slot_off : int

val write_meta : t -> name:string -> kind:int -> aux:int -> Nvmpi_addr.Kinds.Vaddr.t
(** Allocates a metadata block in the home region, registers the root,
    and returns the block's address. *)

val find_meta : Core.Machine.t -> Nvmpi_nvregion.Region.t -> name:string ->
  kind:int -> Nvmpi_addr.Kinds.Vaddr.t * int * int
(** [find_meta m r ~name ~kind] reads the metadata block back:
    [(addr, payload_size, aux)].
    @raise Failure if the root is missing or the kind tag differs. *)
