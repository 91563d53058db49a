(** Records the persistence event log of a run and folds it into live
    durability state.

    A tracker attaches to a machine's memory observer (stores), to the
    cachesim persist hook (flushes/fences) and to the machine's
    [crash_hook] (so {!Nvmpi_tx.Tx.simulate_crash} materializes its
    crash through the same definition of "durable"). Tracking begins at
    {!arm}: the contents of every open region at that moment form the
    durable base image — everything before arm is modelled as fully
    persisted.

    Recording is observation-only: the tracker never issues simulated
    accesses or charges (snapshots, the base images taken at {!arm} and
    the crash written back by {!apply_crash} all go through
    {!Nvmpi_memsim.Memsim}'s debug port), so an attached-but-unarmed
    tracker leaves cycle counts unchanged. {!checkpoint} is the
    exception by design — it {e is} the program action "flush
    everything volatile, then fence", charged normally. *)

type t

val attach : Core.Machine.t -> t
(** Registers the tracker with [machine]'s memory, timing model and
    crash hook. One tracker per machine. *)

val arm : t -> unit
(** Starts (or restarts) recording: snapshots all open regions as the
    durable base, clears the event log. Raises [Invalid_argument] if no
    region is open. *)

val disarm : t -> unit
val armed : t -> bool
val machine : t -> Core.Machine.t
val line_size : t -> int

(** {1 The event log} *)

val seq : t -> int
(** Events recorded since {!arm}. A {e crash point} [p] means "power
    fails after the first [p] events"; valid points are [0..seq t]. *)

val event : t -> int -> Events.t
val events : t -> Events.t array

val event_window : t -> upto:int -> width:int -> (int * Events.t) list
(** The last [width] events before crash point [upto], with their
    indices — the context a failure report prints. *)

(** {1 Durability state} *)

val tracked :
  t ->
  (Nvmpi_addr.Kinds.Rid.t * int * int * Nvmpi_memsim.Memsim.Page_image.t) list
(** Tracked regions as [(rid, base, size, base_image)]. *)

val crash_image :
  t -> Nvmpi_addr.Kinds.Rid.t -> Nvmpi_memsim.Memsim.Page_image.t
(** A copy of the region's durable image {e now} (crash point
    [seq t]). *)

val durable_bytes : t -> int
val volatile_bytes : t -> int

val checkpoint : ?fence:bool -> t -> unit
(** Flushes every line holding dirty or staged bytes of a tracked region
    (through {!Nvmpi_cachesim.Timing.flush}, so the flushes are charged
    and recorded) and issues a fence — after which the live state is
    exactly durable. [~fence:false] deliberately omits the fence: the
    fence-dropping test double the sweep must catch. *)

val apply_crash : t -> unit
(** Materializes a power failure on the live machine: every tracked
    region's memory reverts to its durable image, volatile tracking
    state is dropped, caches are cold-started. This is what the
    machine's [crash_hook] invokes. *)
