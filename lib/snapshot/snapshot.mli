(** Failure-atomic snapshot durability (FAMS/WAL, docs/SNAPSHOT.md).

    The second durability discipline alongside undo-log
    {!Nvmpi_tx.Tx}: mutations between {!sync} calls run completely
    un-instrumented — plain stores, no per-op flush or fence — while a
    {!Nvmpi_memsim.Memsim} observer records which cache lines {e and}
    which pages of the watched region were touched. {!sync} then makes
    the whole epoch durable in one failure-atomic step: it appends an
    [(offset, payload)] record per dirty unit to a persistent
    write-ahead log carved from the region, fences a commit record,
    writes the dirty lines back in place, and truncates the log.
    {!attach} replays any committed-but-untruncated log idempotently,
    so every crash point recovers to exactly the last synced epoch.

    The tracked granularity selects what gets logged and written back:
    [Line] (64 B units) or [Page] (4 KiB units) — the FAMS
    write-amplification trade-off the [snapshot] experiment measures.
    Both dirty sets are always maintained, so the [snap.dirty_lines] /
    [snap.dirty_pages] counters expose the amplification ratio
    regardless of the granularity in force.

    Region offsets in the dirty set and the log are region-relative,
    so an epoch (and its recovery log) survives a region remap —
    {!retarget} just swaps the watched base.

    Observers cannot be detached from a memory, so create at most a
    handful of snapshots per machine ({!disable} makes one inert). *)

type granularity = Core.Durability.granularity = Line | Page

val granularity_to_string : granularity -> string
(** ["line"] or ["page"]. *)

(** {1 Snapshots} *)

type t

val create :
  Core.Machine.t ->
  Nvmpi_nvregion.Region.t ->
  ?granularity:granularity ->
  ?log_cap:int ->
  unit ->
  t
(** Carves the snapshot metadata page and a write-ahead log of
    [log_cap] bytes (default 64 KiB, rounded up to whole pages) out of
    the region, anchors them at the ["__snapshot"] root, and starts
    dirty tracking. [granularity] defaults to the machine's
    [Snapshot g] discipline, or [Line] on any other machine. *)

val attach : Core.Machine.t -> Nvmpi_nvregion.Region.t -> t
(** Re-opens a snapshot (possibly after a crash or remap): reads the
    persisted granularity and log geometry, {e replays any committed
    log} ({!replay}), and resumes tracking with an empty dirty set.
    @raise Failure if the root is missing or the magic is wrong. *)

val retarget : t -> Nvmpi_nvregion.Region.t -> unit
(** Points the tracker at the region's new mapping after a
    [remap_region]/[migrate_region]. The (region-relative) dirty set
    is preserved — the epoch continues across the move. *)

val granularity : t -> granularity
val region : t -> Nvmpi_nvregion.Region.t

val dirty_lines : t -> int
val dirty_pages : t -> int
(** Distinct lines / pages dirtied in the current epoch. *)

val pending_log_bytes : t -> int
(** Log bytes the current dirty set will need at the next {!sync}
    (records at the tracked granularity, headers included) — compare
    against {!log_capacity} to sync before the log can overflow. *)

val log_capacity : t -> int
val committed_bytes : t -> int
(** Committed-but-untruncated log length (non-zero only between a
    crash and {!replay}, or after [sync ~stop_after:`Commit]). *)

val sync : ?stop_after:[ `Commit ] -> t -> unit
(** Makes the current epoch failure-atomically durable:

    + append one [(offset, len, payload)] record per dirty unit (in
      ascending offset order), flush the log lines, fence;
    + write the commit record (the total log length), flush, fence —
      the commit point;
    + flush every dirty unit's lines in place, fence;
    + truncate (zero the commit record), flush, fence.

    A crash before step 2's fence recovers the previous epoch (the
    uncommitted log is ignored); after it, {!replay} reinstalls this
    epoch from the log, idempotently, however often it is cut short.
    [~stop_after:`Commit] returns right after step 2 with the log
    still committed — the fault-injection scenario uses it to drive
    {!replay} as a tracked workload and crash mid-replay.
    An epoch with an empty dirty set is a no-op.
    @raise Failure if the dirty set does not fit the log. *)

val replay : t -> unit
(** Replays a committed log — copies every record's payload back in
    place, flushes, fences, then truncates. Idempotent; a no-op when
    nothing is committed. @raise Failure on a corrupt log. *)

val disable : t -> unit
(** Stops tracking permanently (the observer stays registered but
    inert). *)
