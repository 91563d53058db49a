(** A simulated byte-addressable virtual address space.

    This stands in for the native virtual memory the paper's C/C++
    prototype manipulates directly. Memory is demand-paged: backing pages
    are materialized on first touch, but only inside ranges registered
    with {!map} — any access outside a mapped range raises {!Fault},
    which is how the tests detect dangling (position-dependent) pointers
    after a region moves.

    Every load and store is reported to registered observers; the timing
    model ({!module:Nvmpi_cachesim}) attaches itself as an observer to
    charge cycles organically. *)

type t

type observer = write:bool -> addr:int -> size:int -> unit
(** One memory access as seen on the simulated bus, delivered as three
    unboxed arguments — no record or variant is allocated per access.
    [write] is [true] for a store; [size] is in bytes (1, 2, 4 or 8 for
    typed accesses, up to a page for bulk-transfer chunks). The address
    is deliberately a raw [int] — observers (the cache model) operate
    below the typed discipline, where every word is untyped bit
    traffic. *)

exception Fault of { addr : int; size : int; reason : string }
(** Raised on an access to unmapped memory or a misaligned access. *)

val create : ?page_bits:int -> ?metrics:Nvmpi_obs.Metrics.t -> unit -> t
(** Fresh, empty address space. [page_bits] defaults to 12 (4 KiB pages).
    Every load and store increments [mem.loads] / [mem.stores] in
    [metrics] (a private registry if none is given). *)

val page_size : t -> int

(** {1 Mappings} *)

val map : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> size:int -> unit
(** [map t ~addr ~size] makes the byte range [[addr, addr+size)]
    accessible. The range is rounded outward to page boundaries. Raises
    [Invalid_argument] if it overlaps an existing mapping. *)

val unmap : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> unit
(** [unmap t ~addr] removes the mapping that was created at exactly
    [addr] and drops its backing pages. Raises [Invalid_argument] if no
    mapping starts at [addr]. *)

val is_mapped : t -> Nvmpi_addr.Kinds.Vaddr.t -> bool
(** [is_mapped t a] is [true] iff address [a] falls inside a mapped
    range. *)

val mappings : t -> (Nvmpi_addr.Kinds.Vaddr.t * int) list
(** All mapped ranges as [(addr, size)] pairs, sorted by address
    (page-rounded). *)

val drop_zero_page : t -> Nvmpi_addr.Kinds.Vaddr.t -> unit
(** [drop_zero_page t a] releases the page holding [a] if it is present
    and all zero. An absent mapped page reads as zeros, so no access can
    tell the difference; only {!stats}[.pages] and host memory do. *)

(** {1 Observers} *)

val add_observer : t -> observer -> unit
(** Registers a callback invoked on every load and store, after the
    access has been validated. Registration is O(1) amortized; a memory
    with a single observer (the common case: the timing model) pays one
    direct closure call per access. *)

(** {1 Typed accesses}

    All accesses must be naturally aligned ([addr] a multiple of the
    access size), which guarantees they never straddle a page. 64-bit
    stores accept any native [int] (including negative values, used by
    off-holder pointers for backward offsets); loads return exactly the
    stored [int]. *)

val load8 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val load16 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val load32 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val load64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val store8 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
val store16 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
val store32 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
val store64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit

val load_sized : t -> size:int -> Nvmpi_addr.Kinds.Vaddr.t -> int
(** Dispatches to [load8/16/32/64] on [size]. *)

val store_sized : t -> size:int -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit

(** {1 Fused entry points}

    The full access pipeline — alignment check, page walk through the
    single-entry TLB, statistics and counter-cell bumps — minus observer
    dispatch. Contract: call these only when {!solo_observed} holds and
    you hold that sole observer's model (in practice: the machine's
    timing model, attached as observer 0 at creation), and charge it
    yourself via [Timing.access_line]. Under that contract the fused
    path is observationally identical to the generic one: the generic
    path would have made exactly one direct [obs0] call with the same
    [(write, addr, size)], and every naturally aligned power-of-two
    access of at most a cache line reduces observer-side to a single
    line charge. *)

val solo_observed : t -> bool
(** True iff exactly one observer is registered — the precondition for
    the fused entry points. *)

val load64_fused : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val store64_fused : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
val load_sized_fused : t -> size:int -> Nvmpi_addr.Kinds.Vaddr.t -> int

(** {1 Bulk transfers}

    Bulk transfers are observed as a sequence of 8-byte (then byte-sized)
    accesses. *)

val blit_from_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> bytes -> unit
(** Copies an OCaml [bytes] into simulated memory at [addr]. *)

val blit_to_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> bytes
(** Copies [len] bytes of simulated memory starting at [addr] out into a
    fresh OCaml [bytes]. *)

val fill : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> char -> unit

(** {1 Region images}

    A region's contents outside any address space — the store's
    canonical image, a tracker's durable image — are kept as
    {!Page_image.t}s: arrays of 4 KiB pages where a missing page reads
    as zeros, just as an untouched mapped page of simulated memory
    does. Copies between memory and an image move only the pages that
    are present. Memory and image never share a page: every copy
    allocates or overwrites a page of the destination's own. *)

module Page_image : sig
  type t

  val page_size : int
  (** 4096: the page size of every image, and of the memory it is
      copied to or from. *)

  val create : int -> t
  (** [create size] is an all-zero image of [size] bytes with no page
      present. *)

  val size : t -> int

  val present : t -> int
  (** Number of pages present. Absent pages read as zeros; a present
      page may also be all zero. *)

  val copy : t -> t
  (** A copy that shares no page with the original. *)

  val of_bytes : bytes -> t
  (** The image of flat bytes, keeping only the pages that hold a
      non-zero byte. *)

  val to_bytes : t -> bytes
  (** The image as [size t] flat bytes. *)

  val blit_from_bytes : bytes -> int -> t -> int -> int -> unit
  (** [blit_from_bytes src src_off t off len] copies [len] bytes of
      [src] into the image at [off], making the pages it writes
      present. Raises [Invalid_argument] outside [[0, size t)]. *)

  val get_int64_le : t -> int -> int64
  val set_int64_le : t -> int -> int64 -> unit

  val resize : t -> int -> t
  (** [resize t size] is a copy of [t] grown to [size] bytes; the new
      tail reads as zeros. Raises [Invalid_argument] if [size] is
      smaller than [size t]. *)
end

val install : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> Page_image.t -> unit
(** [install t ~addr img] writes [img] into memory at [addr]: the
    present pages are copied into pages of the memory's own, and the
    memory's existing pages under absent ones are zeroed. No observer
    fires. It counts one [mem.stores] per page the image spans, present
    or not: as many as a {!blit_from_bytes} of the flat image counts.
    [addr] must be page-aligned. Raises {!Fault} if the range leaves
    mapped memory. *)

val extract : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> Page_image.t -> unit
(** [extract t ~addr img] overwrites [img] with the [Page_image.size img]
    bytes of memory at [addr]; an untouched page of memory becomes an
    absent page of [img], and bytes of the last memory page past
    [size img] stay behind. No observer fires; it counts one
    [mem.loads] per page the image spans and materializes no page.
    [addr] must be page-aligned. Raises {!Fault} if the range leaves
    mapped memory. *)

(** {1 Debug port}

    Raw access below the access pipeline: no observers fire, no
    statistics or counters move. The fault-injection harness uses these
    to snapshot line contents at flush time and to overwrite live memory
    with a materialized crash image; they must never stand in for a
    program access. *)

val peek_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> bytes
(** [peek_bytes t ~addr ~len] copies [len] bytes out without observing
    or materializing pages (untouched mapped pages read as zeros).
    Raises {!Fault} if the range leaves mapped memory. *)

val poke_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> bytes -> unit
(** [poke_bytes t ~addr b] overwrites simulated memory with [b] without
    observing. Raises {!Fault} if the range leaves mapped memory. *)

val peek_image :
  t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> size:int -> Page_image.t
(** {!extract} into a fresh image of [size] bytes, through the debug
    port: no counter moves. *)

val poke_image : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> Page_image.t -> unit
(** {!install} through the debug port: no counter moves. *)

(** {1 Statistics} *)

type stats = { mutable loads : int; mutable stores : int; mutable pages : int }

val stats : t -> stats
(** Cumulative access counts, and the number of pages present now:
    pages materialized by an access or an image copy, less those that
    {!unmap} or {!drop_zero_page} released. *)
