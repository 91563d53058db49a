(** The experiment suite as a unit: named experiments, JSON snapshots
    of their results, and regression checking of one snapshot against
    another.

    A snapshot is the schema-versioned document [bench/main.exe --json]
    writes (see [docs/METRICS.md] for the full schema):

    {v
    { "schema_version": 2,
      "params": { "scale": ..., "seed": ..., "wordcount_full": ... },
      "experiments": [ { "name": "fig12", "tables": [ ... ] }, ... ],
      "wall": { ... }   (optional, host wall-clock — never checked) }
    v}

    [check] compares the per-cell ["cycles"] values of two snapshots'
    table records; because the simulator is deterministic, a fresh run
    with a snapshot's own [params] reproduces it exactly, and any drift
    beyond the tolerance signals a behavioural change in the simulator
    or a representation. *)

val schema_version : int

type params = { scale : float; seed : int option; wordcount_full : bool }
(** What a snapshot captures about how it was produced. [seed = None]
    leaves each experiment's default seed in effect. *)

val default : params
(** scale 1.0, default seeds, scaled wordcount inputs. *)

val names : string list
(** Every experiment name, in paper order: fig12, payload, table1,
    fig13, fig14, regions, fig15, breakdown, ablations. The bechamel
    host-time micro-benchmarks are not part of the suite — they measure
    the simulator, not the simulated machine, so they have no
    deterministic cycle numbers to snapshot. *)

val mem : string -> bool
(** Whether a string names a suite experiment. *)

type result = { name : string; tables : Table.t list; wall_ns : int }
(** [wall_ns] is the host wall-clock the experiment took to {e run};
    it never appears in the table cells. *)

val run : params -> string -> result
(** Runs one named experiment.
    @raise Invalid_argument on an unknown name (check {!mem} first). *)

val run_all : ?jobs:int -> params -> string list -> result list
(** [jobs > 1] runs the experiments on a {!Nvmpi_parsweep.Pool} — each
    experiment already builds private machines and metrics registries —
    and returns results in request order, identical to the serial run
    except for [wall_ns]. *)

val snapshot_of :
  ?wall:bool ->
  ?deref_ns:(string * float) list ->
  params -> result list -> Nvmpi_obs.Json.t
(** The schema-versioned snapshot document for a set of results.
    [~wall:true] (default false) appends a ["wall"] section with
    per-experiment and total [wall_ns], and — when
    [deref_ns] is non-empty — a ["deref_ns_per_op"] object mapping each
    representation to its measured host-nanosecond single-dereference
    cost. {!check} ignores the whole section, and determinism tests
    compare snapshots without it. *)

val params_of_json :
  Nvmpi_obs.Json.t -> (params, string) Stdlib.result
(** Reads a snapshot's [params], so a check can re-run with the exact
    configuration the baseline was produced with. *)

val names_of_json :
  Nvmpi_obs.Json.t -> (string list, string) Stdlib.result
(** The experiment names a snapshot contains, in order. *)

val check :
  ?tolerance:float ->
  baseline:Nvmpi_obs.Json.t ->
  fresh:Nvmpi_obs.Json.t ->
  unit ->
  (int * string list, string) Stdlib.result
(** [check ~baseline ~fresh ()] compares every record cell of
    [baseline] that carries a ["cycles"] value against the same cell of
    [fresh] (keyed by experiment name, table title, record row and cell
    label). [Ok (compared, mismatches)] gives the number of cells
    compared and a human-readable line per cell that is missing from
    [fresh] or whose cycles deviate by more than [tolerance]
    (default 0.10, i.e. 10%) in either direction — a large speedup is
    as suspicious as a slowdown when the simulator is deterministic.
    [Error] means a snapshot is malformed or from another schema
    version. *)
