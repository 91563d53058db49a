(** A PMEM.IO-like transactional object store over one NVRegion.

    Mirrors the setup of the paper's "transactional" experiments
    (Section 6.3): every data item is wrapped with metadata — type tag,
    size, version, flags — and the wrapped allocation is rounded to
    {!wrap_unit} (128 bytes, the item size the paper reports). Reads go
    through an accessor that charges the library's bookkeeping overhead;
    writes inside a transaction are undo-logged by {!Tx}.

    The store formats the region's free space with the position-
    independent {!Nvmpi_alloc.Freelist}, reserves an undo-log buffer, and
    anchors its metadata at the ["__objstore"] NVRoot — so a store can be
    re-{!attach}ed after the region is remapped in a later run. *)

type t

val wrap_unit : int
(** Wrapped objects are multiples of this size (128 bytes). *)

val header_bytes : int
(** Per-object metadata preceding the payload (32 bytes). *)

val read_overhead_cycles : int
(** ALU cycles charged per {!touch_read} (library accessor cost). *)

val create : Core.Machine.t -> Nvmpi_nvregion.Region.t -> ?log_cap:int ->
  ?heap:[ `Palloc | `Freelist ] -> unit -> t
(** Formats the region's remaining free space as an object heap with a
    [log_cap]-byte undo-log buffer (default 256 KiB). The region must be
    freshly created (or at least have enough free space). [heap] picks
    the allocator backend: the recoverable size-class
    {!Nvmpi_palloc.Palloc} (default) or the legacy first-fit
    {!Nvmpi_alloc.Freelist} (used by the bench runner to keep the
    committed cycle baseline's object placement). *)

val attach : Core.Machine.t -> Nvmpi_nvregion.Region.t -> t
(** Re-attaches to a formatted region (after a remap or in a new run).
    The heap backend is self-describing (palloc heaps start with their
    superblock magic); palloc heaps are re-opened through
    {!Nvmpi_palloc.Palloc.recover}, so attaching a post-crash image
    yields a consistent heap, and attaching one {!close} left costs no
    heap sweep. If the persisted undo log is non-empty — a crash
    interrupted a transaction — it is rolled back after the heap
    recovery.
    @raise Failure if the region holds no object store. *)

val rolled_back : t -> int
(** The undo records the image held when {!attach} made [t], all rolled
    back by it: 0 after a committed or aborted transaction, and for a
    store {!create} made. *)

val close : t -> unit
(** Clean close before the region is closed: a palloc heap is closed
    with {!Nvmpi_palloc.Palloc.close}, so the next {!attach} skips its
    sweep; a freelist heap needs nothing. The handle must not allocate
    or free afterwards. *)

val heap_block_count : t -> int * int
(** [(allocated, free)] wrapped-block counts straight from the heap
    backend — the leak oracle behind the kvstore overwrite-storm test. *)

val heap_check : t -> unit
(** Runs the backend's full invariant check.
    @raise Nvmpi_palloc.Palloc.Corrupted (or
    [Nvmpi_alloc.Freelist.Corrupted]) on violation. *)

val machine : t -> Core.Machine.t
val region : t -> Nvmpi_nvregion.Region.t

val alloc : t -> ?tag:int -> size:int -> unit -> Nvmpi_addr.Kinds.Vaddr.t
(** Allocates a wrapped object with a [size]-byte payload and returns
    the {e payload} address. *)

val free : t -> Nvmpi_addr.Kinds.Vaddr.t -> unit
(** Frees an object by payload address. *)

val obj_tag : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val obj_size : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
(** Metadata of the object owning the given payload address. *)

val touch_read : t -> unit
(** Charges the per-access read-accessor overhead. *)

val objects_alive : t -> int

(** {1 Undo log plumbing (used by {!Tx})} *)

val log_append : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> unit
(** Persists an undo record of [len] bytes at [addr] (current contents)
    into the log: data copy, log-head update, flush, fence. *)

val log_entries : t -> int
val log_rollback : t -> unit
(** Applies all undo records newest-first, then truncates the log. *)

val log_reset : t -> unit
(** Truncates the log (transaction committed). *)
