(** The durability state machine for one tracked region.

    Folding {!Events.t} entries (in log order) over an instance keeps
    three byte populations apart, at the cachesim's line granularity:

    - {e durable} — would survive a power failure: the region contents at
      arm time, plus every line snapshot whose flush was followed by a
      fence;
    - {e staged} — flushed out of the cache but not yet fenced: a
      full-line snapshot captured at flush time, made durable by the next
      {!Events.Fence};
    - {e dirty} — stored but not flushed: lost at a crash.

    Cache evictions are deliberately not modelled as durable — the image
    is the {e guaranteed}-persisted lower bound (see docs/FAULTSIM.md). *)

type t

val create :
  base:int -> line:int -> init:Nvmpi_memsim.Memsim.Page_image.t -> t
(** [init] (the region contents when tracking was armed) is the initial
    durable image, copied; its size is the region's. [line] is the
    cache-line size in bytes. *)

val apply : t -> Events.t -> unit
(** Folds one event. Events outside [[base, base+size)] are ignored. *)

val image : t -> Nvmpi_memsim.Memsim.Page_image.t
(** A copy of the current durable image, sharing no page with it. A page
    is present when it was present in [init] or a fence landed a line
    on it. *)

val base : t -> int

val durable_bytes : t -> int
(** Cumulative count of bytes made durable by fences since creation. *)

val volatile_bytes : t -> int
(** Bytes currently dirty or staged — what a crash right now loses. *)

val pending_lines : t -> int list
(** Line start addresses with dirty or staged (unfenced) bytes, sorted.
    Flushing exactly these and fencing makes the live state durable. *)

val reset_volatile : t -> unit
(** Drops all dirty/staged state (the crash happened; nothing volatile
    survives). The durable image is unchanged. *)
