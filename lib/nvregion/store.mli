(** The persistent NVM device: holds the canonical images of all
    NVRegions that exist in the system, independent of any address
    space.

    A {!t} outlives the simulated machines ("runs") that open regions
    from it: run A creates and populates a region, run B opens the same
    store and maps the region at a different virtual address — which is
    exactly the scenario position independence must survive.

    Images can also be saved to / loaded from files so that examples can
    demonstrate persistence across processes. *)

type t

type blob = {
  rid : Nvmpi_addr.Kinds.Rid.t;
  size : int;  (** usable region size in bytes, header included *)
  data : Nvmpi_memsim.Memsim.Page_image.t;
      (** the image, page-sparse: only pages a run has touched are
          present. While the region is open, memory maps these very
          pages ({!Manager}), so the image holds every store at once. *)
}

val create : unit -> t

val add : t -> size:int -> Nvmpi_addr.Kinds.Rid.t
(** [add t ~size] creates a fresh region image of [size] bytes with an
    initialized header and returns its region ID. IDs are allocated
    densely starting at 1 (ID 0 is reserved as "no region"). *)

val add_with_rid : t -> rid:Nvmpi_addr.Kinds.Rid.t -> size:int -> unit
(** Like {!add} with an explicit ID. Raises [Invalid_argument] if the ID
    is taken or is 0. *)

val add_image :
  t -> rid:Nvmpi_addr.Kinds.Rid.t -> Nvmpi_memsim.Memsim.Page_image.t -> unit
(** [add_image t ~rid img] adds region [rid] with image [img], header
    and all, as it stands. The store takes [img] over without copying:
    the caller must not use it afterwards. Raises [Invalid_argument] as
    {!add_with_rid} does. *)

val grow : t -> rid:Nvmpi_addr.Kinds.Rid.t -> size:int -> unit
(** [grow t ~rid ~size] enlarges a region image to [size] bytes,
    preserving its contents (the tail is zeroed). The region must not be
    open anywhere. Raises [Invalid_argument] if [size] is not strictly
    larger or the region does not exist. *)

val find : t -> Nvmpi_addr.Kinds.Rid.t -> blob option
val find_exn : t -> Nvmpi_addr.Kinds.Rid.t -> blob
val mem : t -> Nvmpi_addr.Kinds.Rid.t -> bool
val remove : t -> Nvmpi_addr.Kinds.Rid.t -> unit
val ids : t -> Nvmpi_addr.Kinds.Rid.t list
(** All region IDs, sorted. *)

val next_rid : t -> Nvmpi_addr.Kinds.Rid.t

(** {1 File persistence} *)

val save_file : t -> string -> unit
(** Serializes every region image to the given file, each as its flat
    [size] bytes. *)

val load_file : string -> t
(** Loads a store previously written by {!save_file}. Each record is
    checked as {!add_with_rid} checks its arguments: a positive ID not
    seen before and a size of at least {!header_bytes}. Raises one
    [Failure "Store.load_file: ..."] on a bad magic, a negative region
    count, a record that fails those checks, or a file that ends before
    its last record does. *)

(** {1 Region-image header}

    The header occupies the first {!header_bytes} of every region image:
    magic, region ID, size, persisted heap cursor, and a root table of up
    to {!max_roots} named roots. It is read and written through the
    simulated memory once a region is mapped; the helpers here operate on
    raw images for store-level invariants. *)

val header_bytes : int
val max_roots : int
val magic : int

val blob_rid : blob -> Nvmpi_addr.Kinds.Rid.t
(** Region ID as recorded inside the image header (must match [rid]). *)
