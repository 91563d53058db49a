(** The multi-tenant region server: tens of thousands of
    NVRegion-backed kvstore tenants behind a deterministic request
    loop, driven by a YCSB-style zipfian workload across every pointer
    representation.

    One run executes the same request stream once per representation.
    Tenants are statically sharded ([tenant mod shards]); each
    (representation, shard) pair is an independent work item with its
    own store, machine, metrics registry and seeded RNG, so the items
    can execute on a {!Nvmpi_parsweep.Pool} in any order — the report
    (and its JSON) is byte-identical at any [jobs], the same contract
    the bench suite and the faultsim sweep already keep. The shard
    count is a workload parameter, {e never} derived from [jobs].

    Request loop per op: draw a tenant (zipfian over the shard's
    tenants), ensure it is resident ({!Residency}: lazy provisioning,
    LRU eviction, remap-on-reopen), draw an operation from the mix,
    draw a key (zipfian over the tenant's keyspace), execute it against
    the tenant's kvstore, and record the op's simulated-cycle cost.
    Documentation: [docs/SERVER.md] (request loop, residency,
    counters), [docs/WORKLOADS.md] (generator math, mixes, seeding). *)

(** {1 Operation mixes} *)

type mix = { read : float; update : float; insert : float; delete : float }
(** Probabilities of each op class; must be non-negative and sum to 1
    (within 1e-9). Reads are [get]s; updates are [put]s over the
    tenant's base keyspace; inserts are [put]s of fresh keys from an
    extension window of the same size; deletes remove zipfian keys from
    the base keyspace, releasing their value blocks back to the
    allocator (see [docs/WORKLOADS.md]). Deleting mixes also churn the
    value size per (key, version) so overwrites cross allocator size
    classes. *)

val mix_a : mix
(** YCSB A, update-heavy: 50% read / 50% update. *)

val mix_b : mix
(** YCSB B, read-heavy: 95% read / 5% update. *)

val mix_c : mix
(** YCSB C, read-only. *)

val mix_insert : mix
(** Insert-heavy: 50% read / 25% update / 25% insert. *)

val mix_churn : mix
(** Allocator churn: 30% read / 40% update / 15% insert / 15% delete,
    with value-size churn — the [nvmpi serve --churn] mix. *)

val mix_of_string : string -> (mix, string) result
(** Accepts a preset name ([a], [b], [c], [insert], [churn]) or an
    explicit [read:F,update:F,insert:F\[,delete:F\]] list. *)

val mix_to_string : mix -> string
(** Canonical [read:F,update:F,insert:F\[,delete:F\]] form (what JSON
    records); the delete part is omitted when zero, so delete-free
    reports render exactly as before. *)

(** {1 Configuration} *)

type config = {
  tenants : int;  (** total tenant count across all shards *)
  theta : float;  (** zipfian skew for tenant and key popularity *)
  mix : mix;
  ops : int;  (** total requests per representation *)
  seed : int;
  shards : int;  (** static tenant shards (a workload parameter) *)
  resident : int;  (** LRU residency capacity per shard *)
  keys_per_tenant : int;  (** base keyspace size per tenant *)
  value_bytes : int;  (** payload size of every value *)
  region_size : int;  (** per-tenant region image size in bytes *)
  buckets : int;  (** kvstore hash buckets per tenant *)
  log_cap : int;  (** per-tenant undo-log capacity in bytes *)
  reprs : Core.Repr.kind list;  (** representations to drive, in order *)
  durability : Core.Durability.t;
      (** every shard machine's persistence discipline; the JSON
          [params] record it only when it is not [Eager] *)
}

val default : config
(** 1000 tenants, theta 0.99, mix B, 5000 ops, seed 42, 4 shards,
    64 resident, 48 keys/tenant, 64-byte values, 64 KiB regions,
    32 buckets, 4 KiB log, all nine representations, [Eager]. *)

val validate : config -> (unit, string) result

(** {1 Running} *)

type tail = { p50 : int; p90 : int; p99 : int; max : int }
(** Simulated-cycle per-op latency percentiles (nearest-rank over all
    non-provisioning ops, merged across shards). *)

type repr_result = {
  repr : Core.Repr.kind;
  requests : int;
  total_cycles : int;  (** summed final machine cycles over the shards *)
  tail : tail;
  counters : (string * int) list;
      (** merged (summed per name) registries of the representation's
          shard machines — [server.*] plus every machine counter the
          workload touched — with the merge-computed
          [server.tail.*_cycles] values appended; sorted by name *)
}

type report = { config : config; results : repr_result list }

val run : ?jobs:int -> config -> report
(** Runs the full matrix. [jobs] only changes wall-clock; the report is
    byte-identical at any value (and across reruns).
    @raise Invalid_argument if {!validate} rejects the config. *)

val report_to_json : report -> Nvmpi_obs.Json.t
(** The deterministic [kind: "server"] document (schema in
    [docs/SERVER.md]). *)

val print_report : report -> unit
(** Human-readable per-representation summary table. *)
