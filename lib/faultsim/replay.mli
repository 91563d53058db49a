(** A forward cursor over a tracker's event log, materializing the
    durable image at successive crash points.

    Sweeping crash points in ascending order costs one fold over the
    whole log in total: {!advance} applies only the events between the
    previous point and the next one. *)

type t

val create : Tracker.t -> t
(** A cursor at crash point 0 (the durable base images at arm time). *)

val pos : t -> int

val advance : t -> upto:int -> unit
(** Moves the cursor to crash point [upto] (applies events
    [pos..upto-1]). Raises [Invalid_argument] when moving backwards or
    past the end of the log. *)

val images :
  t -> (Nvmpi_addr.Kinds.Rid.t * Nvmpi_memsim.Memsim.Page_image.t) list
(** Durable images of all tracked regions at the current crash point, as
    [(rid, image)] — the exact NVM contents a crash here leaves. Each
    image is a fresh copy of the present pages only, which the caller
    owns (and {!Recovery.boot} hands to its store). *)

val durable_bytes : t -> int
val volatile_bytes : t -> int
