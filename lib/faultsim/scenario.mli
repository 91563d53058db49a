(** Crash-consistency scenarios: workloads instrumented with durability
    checkpoints plus an oracle that, given a crash point, decides whether
    a recovered machine is in a legal state.

    A scenario's [run] builds the workload on a fresh machine, arms a
    {!Tracker} at the point from which crashes are injected, and returns
    the tracker together with a [verify] function. [verify ~seq] is
    called on a {e recovery} machine booted from the durable image at
    crash point [seq] (regions remapped to fresh random segments) and
    returns [Ok ()] or [Error reason].

    [expect_fail] marks self-test doubles (e.g. a fence-dropping
    checkpoint): the sweep inverts the verdict — such a scenario passes
    only if at least one crash point produces a violation, proving the
    harness detects real durability bugs. *)

type run = {
  tracker : Tracker.t;
  verify :
    seq:int ->
    Core.Machine.t ->
    (Nvmpi_addr.Kinds.Rid.t * Nvmpi_nvregion.Region.t) list ->
    (unit, string) result;
}

type t = {
  name : string;
  expect_fail : bool;
  run : metrics:Nvmpi_obs.Metrics.t -> seed:int -> run;
}

val structure_scenario :
  ?keys:int ->
  ?batch:int ->
  ?fence:bool ->
  ?pinned_dependent:bool ->
  Nvmpi_experiments.Instance.structure ->
  Core.Repr.kind ->
  t
(** Builds the structure in batches with a {!Tracker.checkpoint} after
    each; the oracle is the live (count, checksum, membership) captured
    at the last durable checkpoint. [~fence:false] makes the self-test
    double. [~pinned_dependent:true] inverts the per-point verdict:
    recovery of the position-{e dependent} image after a remap must
    observably fail (used to pin [Normal]'s expected behaviour). *)

val kv_scenario : ?ops:int -> Core.Repr.kind -> t
(** Transactional key-value store: read-your-writes against the durable
    commit prefix, allowing the single in-flight transaction to be
    either fully applied or fully absent. *)

val tx_cells_scenario : ?txs:int -> unit -> t
(** Undo-logged multi-word transactions on one object: no crash point
    may expose a torn transaction. *)

val swizzle_window_scenario : ?keys:int -> unit -> t
(** Pins the swizzle representation's inherent crash window: between the
    load-time swizzle persist and the save-time unswizzle persist the
    image is position dependent, and recovery at a fresh segment must
    detectably fail; outside the window it must succeed exactly. *)

val alloc_scenario : ?ops:int -> unit -> t
(** Seeded alloc/free churn on a {!Nvmpi_palloc.Palloc} heap, every
    allocation published through a root cell. At every crash point
    recovery must yield a heap whose [check] passes and whose allocated
    set equals the rooted set — no leaked block, no double-mapped byte,
    no reachable-but-unbacked object. *)

val alloc_leak_selftest : unit -> t
(** Selftest double: durably clears a root before freeing its block,
    opening a window where a live block is unreachable. The sweep must
    report the leak ([expect_fail]). *)

val durable_structures : Nvmpi_experiments.Instance.structure list
(** Hashset and bstree — the structures ported to the durable
    discipline. *)

val durable_scenario :
  ?ops:int ->
  ?drop_flushes:bool ->
  Nvmpi_experiments.Instance.structure ->
  Core.Repr.kind ->
  t
(** Insert/remove churn on a hashset or bstree on a [Traverse] machine
    (docs/DURABLE.md). Oracle at every crash point:
    the recovered set equals the durable commit prefix of the op log
    (count, checksum and per-key membership, probed through a
    traverse-mode attach so marked-link repair is exercised), with the
    single in-flight op either fully applied or fully absent.
    [~drop_flushes:true] is the selftest double ([expect_fail]): its
    machine runs [Drop_window_flushes], so every window flush/fence is
    suppressed, completed ops never become durable and the oracle must
    flag the loss. *)

val snapshot_cells_scenario :
  ?epochs:int ->
  ?cells:int ->
  ?granularity:Nvmpi_snapshot.Snapshot.granularity ->
  ?drop_writeback:bool ->
  unit ->
  t
(** Failure-atomic snapshot epochs (docs/SNAPSHOT.md) over a strided
    cell array: plain un-instrumented stores between [Snapshot.sync]
    calls. Oracle at every crash point — including mid-log-append,
    post-commit pre-writeback, mid-replay (one epoch commits then
    replays explicitly) and pre-truncate: the recovered image, after
    [Snapshot.attach] replays any committed log, equals exactly the
    last synced epoch, with the in-flight sync all-or-nothing.
    [~drop_writeback:true] is the selftest double ([expect_fail]): its
    machine runs [Drop_writeback], so the in-place write-back is
    suppressed while the truncate still runs, and a committed epoch is
    durably discarded and must be flagged. *)

val snapshot_kv_scenario :
  ?epochs:int ->
  ?granularity:Nvmpi_snapshot.Snapshot.granularity ->
  Core.Repr.kind ->
  t
(** Kvstore on the plain (snapshot) write path over a flush-free
    freelist heap: batches of puts/deletes closed by a sync. Epoch
    read-your-writes — every crash point recovers to the whole last
    synced batch (index, values and allocator state together) or, for
    the one in-flight sync, the next batch in full. *)

val defaults : unit -> t list
(** The full sweep: the paper's four structures under every
    position-independent representation, the kvstore under the core
    representations, raw transactions, the swizzle window, and the
    pinned position-dependent baseline — all nine representations
    appear. *)

val selftests : unit -> t list
(** Deliberately broken doubles the sweep must flag ([expect_fail]). *)
