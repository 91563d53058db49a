(** A simulated byte-addressable virtual address space.

    This stands in for the native virtual memory the paper's C/C++
    prototype manipulates directly. Memory is demand-paged: a backing
    page is materialized by the first store to it (a load from an
    untouched page reads zeros and allocates nothing), but only inside
    ranges registered with {!map} — any access outside a mapped range
    raises {!Fault}, which is how the tests detect dangling
    (position-dependent) pointers after a region moves.

    Every load and store is counted, charged to the memory's cache model
    ({!Nvmpi_cachesim.Timing}), and then reported to registered
    observers. *)

type t

type observer = write:bool -> addr:int -> size:int -> unit
(** One memory access as seen on the simulated bus, delivered as three
    unboxed arguments — no record or variant is allocated per access.
    [write] is [true] for a store; [size] is in bytes (1, 2, 4 or 8 for
    typed accesses, up to a page for bulk-transfer chunks). The address
    is deliberately a raw [int] — observers (harness trackers) operate
    below the typed discipline, where every word is untyped bit
    traffic. *)

exception Fault of { addr : int; size : int; reason : string }
(** Raised on an access to unmapped memory or a misaligned access. *)

val create :
  ?metrics:Nvmpi_obs.Metrics.t -> timing:Nvmpi_cachesim.Timing.t -> unit -> t
(** Fresh, empty address space of 4 KiB pages ({!Page_image.page_size})
    whose accesses are charged to [timing]. Every load and store
    increments [mem.loads] / [mem.stores] in [metrics] (a private
    registry if none is given).

    Memory recycles its pages: the pages that {!unmap} and
    {!drop_zero_page} release from its anonymous mappings become spares,
    and a page is materialized from a spare, overwritten whole, before
    one is allocated. A page is allocated only when there is no spare.
    The pages of an installed image are the image's: nothing hands one
    to the spares. *)

val pages : t -> int
(** The number of pages memory holds of its own: pages of its anonymous
    mappings materialized by a store, less those that {!unmap} or
    {!drop_zero_page} released. The pages of an installed image are
    counted by {!Page_image.present}. *)

(** {1 Mappings} *)

val map : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> size:int -> unit
(** [map t ~addr ~size] makes the byte range [[addr, addr+size)]
    accessible as anonymous memory, whose pages are memory's own. The
    range is rounded outward to page boundaries. Raises
    [Invalid_argument] if it overlaps an existing mapping. *)

val unmap : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> unit
(** [unmap t ~addr] removes the mapping that was created at exactly
    [addr] and clears the TLB. The pages of an anonymous mapping become
    spares; an installed image keeps its pages, the bytes of its last
    page past its size zeroed. Raises [Invalid_argument] if no mapping
    starts at [addr]. *)

val is_mapped : t -> Nvmpi_addr.Kinds.Vaddr.t -> bool
(** [is_mapped t a] is [true] iff address [a] falls inside a mapped
    range. *)

val mappings : t -> (Nvmpi_addr.Kinds.Vaddr.t * int) list
(** All mapped ranges as [(addr, size)] pairs, sorted by address
    (page-rounded). *)

val drop_zero_page : t -> Nvmpi_addr.Kinds.Vaddr.t -> unit
(** [drop_zero_page t a] releases the page holding [a] if it is a
    present page of an anonymous mapping and all zero. An absent mapped
    page reads as zeros, so no access can tell the difference; only
    {!pages} and host memory do. A page of an installed image is never
    released. *)

(** {1 Observers} *)

val add_observer : t -> observer -> unit
(** Registers a callback invoked on every load and store, after the
    access has been validated and charged to the cache model, and
    before a store writes its bytes. Observers run in registration
    order; registration is O(1) amortized. Only the harness observes:
    the fault-injection tracker, the snapshot discipline and the
    experiments that count touched lines. *)

(** {1 Typed accesses}

    All accesses must be naturally aligned ([addr] a multiple of the
    access size), which guarantees they never straddle a page or a
    cache line; each is charged as one line access
    ({!Nvmpi_cachesim.Timing.access_line}). 64-bit
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

(** {1 Bulk transfers}

    A bulk transfer splits at page boundaries and counts one access per
    piece: each chunk, at most a page long, bumps [mem.stores]
    ([blit_from_bytes]) or [mem.loads] ([blit_to_bytes]) once, is
    charged for every cache line it touches
    ({!Nvmpi_cachesim.Timing.access}), and is reported to every observer
    as a single access of its own address and size. *)

val blit_from_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> bytes -> unit
(** Copies an OCaml [bytes] into simulated memory at [addr]. *)

val blit_to_bytes : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> bytes
(** Copies [len] bytes of simulated memory starting at [addr] out into a
    fresh OCaml [bytes]. *)

(** {1 Region images}

    A region's contents — the store's image, a tracker's durable image —
    are kept as {!Page_image.t}s: arrays of 4 KiB pages where a missing
    page reads as zeros, just as an untouched mapped page of simulated
    memory does. An open region's pages are its store image's pages:
    {!install} maps an image in place, as a DAX file is mapped, so a
    store through the mapping writes the image and nothing is copied
    when a region opens or closes. Only the debug port copies pages
    between memory and an image. *)

module Page_image : sig
  type t

  val page_size : int
  (** 4096: the page size of every image, and of the memory that maps
      it. *)

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
(** [install t ~addr img] maps [img] at [addr], over the image's own
    pages: slot [k] is the page at [addr + k * page_size]. A load from
    an absent slot reads zeros and materializes nothing; a store to one
    puts a zero-filled page of the memory (a spare if there is one) into
    the slot; a write to [img] from outside is seen by the next access.
    The range spans the image's pages, so the bytes of its last page
    past [size img] are mapped too; {!evict} and {!unmap} zero them.
    Nothing is charged and no observer fires. It counts one [mem.stores]
    per page the image spans, present or not: as many as a
    {!blit_from_bytes} of the flat image counts. [addr] must be
    page-aligned. Raises [Invalid_argument] if [addr] is not, if [img]
    is empty, or if the range overlaps an existing mapping. Its cost
    does not grow with the image: no page is copied, moved or
    visited. *)

val evict : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> unit
(** [evict t ~addr] closes the image mapping installed at [addr]: it
    zeroes the bytes of the image's last page past its size, removes the
    mapping and clears the TLB. The image keeps every page. Nothing is
    charged and no observer fires; it counts one [mem.loads] per page
    the image spans. Raises [Invalid_argument] if no mapping starts at
    [addr] or the one that does is anonymous. Like {!install}, it
    visits no page. *)

(** {1 Debug port}

    Raw access below the access path: nothing is charged, no observers
    fire, no counters move. The fault-injection harness uses these
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
(** [peek_image t ~addr ~size] copies the [size] bytes of memory at the
    page-aligned [addr] into a fresh image that shares no page with
    memory. An untouched page becomes an absent slot, and bytes of the
    last page past [size] stay behind. Raises {!Fault} if the range
    leaves mapped memory. *)

val poke_image : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> Page_image.t -> unit
(** [poke_image t ~addr img] overwrites the memory at the page-aligned
    [addr] with a copy of [img]: a present slot's page is copied whole,
    its zero tail included, and the memory page under an absent slot is
    zeroed. Raises {!Fault} if the range leaves mapped memory. *)
