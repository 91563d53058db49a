(** Recoverable size-class persistent-memory allocator.

    A segregated-fit heap over one contiguous NVM range [\[lo, hi)]:
    requests up to {!max_small} bytes are served from per-class free
    lists carved out of slabs; larger requests go through a coalescing
    first-fit path like {!Nvmpi_alloc.Freelist}. Every persistent field
    — class heads, block headers, the operation log, the root cells —
    is an offset from [lo], so the heap is position independent: the
    range can be closed and re-attached at any base.

    Durability discipline (docs/ALLOC.md): the per-block state words
    and the single-slot operation log are persisted with explicit
    clwb+fence ordering; free-list {e links} are volatile by design.
    After a crash, {!recover} resolves the pending logged operation
    (allocations roll back, frees roll forward) and rebuilds every free
    list from a physical sweep of the block headers, so no crash point
    can leak a block that was being handed out through a root cell,
    map one byte into two blocks, or leave a root cell pointing at
    unbacked bytes. A heap left by {!close} skips that sweep: close
    makes the lists durable and marks the log [closed], and {!recover}
    trusts the lists only under that mark. *)

type t

exception Out_of_memory of { requested : int; free : int }
exception Corrupted of string

val class_sizes : int array
(** Small size classes, ascending; requests above the largest go
    through the large (coalescing) path. *)

val max_small : int
(** Largest small-class payload ([class_sizes] last entry). *)

val superblock_bytes : int
(** Bytes reserved at [lo] for the superblock (heads, log, roots). *)

val roots : int
(** Number of root cells in the superblock (see {!alloc_into}). *)

val min_range : int
(** Smallest supported [hi - lo]. *)

val is_formatted : Nvmpi_memsim.Memsim.t -> lo:Nvmpi_addr.Kinds.Vaddr.t -> bool
(** Does the range start with a palloc superblock magic? Used by
    embedders (the object store) to tell a palloc heap from a legacy
    freelist heap when attaching. *)

val init :
  mem:Nvmpi_memsim.Memsim.t ->
  timing:Nvmpi_cachesim.Timing.t ->
  metrics:Nvmpi_obs.Metrics.t ->
  lo:Nvmpi_addr.Kinds.Vaddr.t ->
  hi:Nvmpi_addr.Kinds.Vaddr.t ->
  t
(** Format [\[lo, hi)] as an empty heap (durably: the superblock and
    the initial free-block header are flushed and fenced). *)

val recover :
  mem:Nvmpi_memsim.Memsim.t ->
  timing:Nvmpi_cachesim.Timing.t ->
  metrics:Nvmpi_obs.Metrics.t ->
  lo:Nvmpi_addr.Kinds.Vaddr.t ->
  hi:Nvmpi_addr.Kinds.Vaddr.t ->
  t
(** Re-open a heap, possibly at a different base: the only way back
    into a formatted range. On a heap {!close} left, restore the free
    lists and the {!frag_bytes} count as persisted, in O(1) accesses,
    after durably disarming the [closed] mark. On any other image
    (a crash, or a heap never closed), resolve the pending logged
    operation, then rebuild every free list from a physical sweep of
    the block headers, counting each block in
    [alloc.recovered_blocks]. Idempotent either way. *)

val close : t -> unit
(** Clean close: flush every line a volatile list store wrote that
    palloc has not flushed since, fence; persist {!frag_bytes} in the
    log's aux word, fence; mark the log [closed], fence. The next
    {!recover} then trusts the lists. The handle is dead afterwards:
    [alloc], [alloc_into], [free], [free_from] and [close] raise
    [Invalid_argument]. *)

val log_state_addr : t -> Nvmpi_addr.Kinds.Vaddr.t
(** Absolute address of the operation log's state word. A faultsim
    selftest double writes {!log_closed} there by hand, skipping the
    list flushes of {!close}. *)

val log_closed : int
(** The log state {!close} leaves. *)

val alloc : t -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** Allocate [n] bytes; returns the payload address. The allocation is
    durable when [alloc] returns, but nothing persistent references it
    yet — a crash before the caller durably publishes the address
    leaks the block (use {!alloc_into} when that matters). *)

val free : t -> Nvmpi_addr.Kinds.Vaddr.t -> unit
(** Release a block by its payload address. Detects double frees and
    addresses that are not block payloads ({!Corrupted}). *)

val alloc_into : t -> root:int -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** Allocate and atomically publish the payload offset into root cell
    [root] (0-based, < {!roots}): after any crash, either the root
    holds the new block or the allocation never happened — never a
    leaked block, never a dangling root. *)

val free_from : t -> root:int -> unit
(** Atomically free the block a root cell references and clear the
    cell. No-op raises {!Corrupted} if the cell is empty. *)

val root_get : t -> int -> int
(** Current payload offset held by a root cell (0 = empty). *)

val root_addr : t -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** Absolute address of a root cell itself. *)

val usable_size : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
(** Payload bytes actually owned by an allocated block. *)

val payload_of_offset : t -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** Absolute address of a payload offset (bounds-checked). *)

val free_bytes : t -> int
(** Payload bytes currently on free lists (small + large). *)

val frag_bytes : t -> int
(** Free payload bytes held captive inside slabs: available only to
    their own size class, never to the large path (slabs are not
    retired). Exposed as the [alloc.frag_bytes] gauge. *)

val block_count : t -> int * int
(** [(allocated, free)] block counts over small and large blocks. *)

val allocated_payloads : t -> int list
(** Payload offsets of every allocated block, ascending — the
    reachability side of the faultsim leak/double-map oracles. *)

val iter_blocks :
  t ->
  (addr:Nvmpi_addr.Kinds.Vaddr.t -> size:int -> free:bool -> unit) -> unit
(** Physical sweep over every small and large block (slab containers
    are walked into, not reported themselves). *)

val check : t -> unit
(** Full invariant check: headers tile the range, every tag and state
    word is sane, class lists hold exactly the free small blocks of
    their class, the large list is address-ordered with no adjacent
    free blocks, no list cycles, the log is idle, and every non-empty
    root cell references an allocated payload. Raises {!Corrupted}. *)
