(** The crash-point sweep: runs a scenario once, then for every selected
    crash point materializes the durable image, boots a recovery machine
    at fresh segments and asks the scenario's oracle for a verdict.

    One {!Replay} cursor walks the points in ascending order, so a whole
    sweep costs a single fold over the event log regardless of how many
    points are explored. *)

type mode =
  | Transitions
      (** both endpoints, the point after every fence, and every point
          where the scenario's expected outcome ({!Scenario.run.expect})
          changes: between two such points neither the durable image
          nor the expectation moves *)
  | Exhaustive  (** every event index (after every store/flush/fence) *)

val mode_to_string : mode -> string

val crash_points : mode -> Scenario.run -> int list
(** The ascending crash points a sweep of a recorded (disarmed) run
    visits. *)

type failure = {
  seq : int;  (** crash point *)
  detail : string;  (** violated invariant *)
  window : (int * Events.t) list;  (** trailing event context *)
}

type scenario_result = {
  name : string;
  expect_fail : bool;
  points : int;
  failures : failure list;
  durable_bytes : int;
  volatile_bytes : int;
  wall_ns : int;
      (** host wall-clock for the whole scenario (workload + sweep).
          Deliberately absent from {!json_of_report}, which stays
          byte-identical across hosts and [jobs] values; [nvmpi crash
          --wall-json] writes wall numbers to a separate document. *)
}

type report = { seed : int; mode : mode; scenarios : scenario_result list }

val scenario_ok : scenario_result -> bool
(** Failures empty — inverted for [expect_fail] self-test doubles, which
    pass only when the sweep caught at least one violation. *)

val ok : report -> bool

val run_scenario :
  ?jobs:int ->
  metrics:Nvmpi_obs.Metrics.t ->
  seed:int ->
  mode:mode ->
  Scenario.t ->
  scenario_result
(** [jobs > 1] splits the crash points into contiguous chunks evaluated
    on a {!Nvmpi_parsweep.Pool} — one private {!Replay} cursor per
    chunk, recovery machines on private metrics registries — and merges
    outcomes in ascending point order on the calling domain. The result
    (and the shared registry's counters) are identical for any [jobs];
    only wall-clock changes. *)

val run :
  ?jobs:int ->
  ?mode:mode ->
  metrics:Nvmpi_obs.Metrics.t ->
  seed:int ->
  Scenario.t list ->
  report
(** Scenario workloads always run serially on the calling domain (they
    feed the shared metrics registry); [jobs] then evaluates {e every}
    chunk of {e every} scenario's crash points on a single Domain pool
    (one spawn per sweep), merging per scenario as in {!run_scenario}.
    Under [jobs > 1] each [wall_ns] is the scenario's serial workload
    time plus the summed chunk-evaluation time — chunks of different
    scenarios overlap, so per-scenario numbers are CPU-like; only the
    report total is comparable to elapsed time at [jobs = 1]. *)

val json_of_report : report -> Nvmpi_obs.Json.t
(** Deterministic sweep report (kind ["faultsim"]) — byte-identical for
    a given seed and mode whatever the host or [jobs] value. *)

val wall_json_of_report : jobs:int -> report -> Nvmpi_obs.Json.t
(** Host wall-clock companion document (kind ["faultsim-wall"]):
    [jobs], total and per-scenario [wall_ns]. Kept separate from
    {!json_of_report} precisely because it is nondeterministic. *)

val pp_report : Format.formatter -> report -> unit
