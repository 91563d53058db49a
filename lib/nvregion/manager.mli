(** The per-address-space NVRegion manager.

    Opening a region maps its image from the {!Store} into a randomly
    chosen NV segment of the data area — modelling both address-space
    randomization and the fact that nothing guarantees a region the same
    virtual address from one run to the next.

    An open region's pages are its store image's pages: open maps the
    image in place ({!Nvmpi_memsim.Memsim.install}), as a DAX file is
    mapped, so every store reaches the image at once, and close unmaps it
    ({!Nvmpi_memsim.Memsim.evict}). Neither copies, moves or visits a
    page, so neither costs more for a larger region. They call no memory
    observer, since mapping is an OS-level operation whose cost is not
    part of any of the paper's measured pointer operations, and count
    one [mem.stores] (open) or [mem.loads] (close) per page the region
    spans. A region open in two machines over one store shares its
    pages, as two mappings of one DAX file do. *)

type t

val create :
  ?seed:int ->
  layout:Nvmpi_addr.Layout.t ->
  mem:Nvmpi_memsim.Memsim.t ->
  store:Store.t ->
  unit ->
  t

val layout : t -> Nvmpi_addr.Layout.t
val store : t -> Store.t
val mem : t -> Nvmpi_memsim.Memsim.t

val create_region : t -> size:int -> Nvmpi_addr.Kinds.Rid.t
(** Creates a new (closed) region image in the store; returns its ID. *)

val open_region :
  ?at_nvbase:Nvmpi_addr.Kinds.Seg.t -> t -> Nvmpi_addr.Kinds.Rid.t -> Region.t
(** [open_region t rid] maps region [rid] at a fresh random NV segment
    and returns the handle; if the region is already open the existing
    handle is returned. [at_nvbase] pins the segment (used by tests and
    by the "what if the region moved" demonstrations).
    @raise Invalid_argument if the region does not exist, is larger than
    a segment, or [at_nvbase] is occupied/not in the data area. *)

val close_region : t -> Nvmpi_addr.Kinds.Rid.t -> unit
(** Unmaps the region ({!Nvmpi_memsim.Memsim.evict}). Its image already
    holds every store; close zeroes the bytes of its last page past the
    region's size. *)

val close_all : t -> unit

val region : t -> Nvmpi_addr.Kinds.Rid.t -> Region.t option
val region_exn : t -> Nvmpi_addr.Kinds.Rid.t -> Region.t
val is_open : t -> Nvmpi_addr.Kinds.Rid.t -> bool
val open_regions : t -> Region.t list
(** Open regions sorted by ID. *)

val region_of_addr : t -> Nvmpi_addr.Kinds.Vaddr.t -> Region.t option
(** The open region containing the given address, if any: one lookup by
    the address's segment, whatever the number of open regions. *)
