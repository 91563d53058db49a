(** The experiment runner: builds a fresh simulated machine per
    configuration, populates the chosen structure under the chosen
    pointer representation, and measures the workload in simulated
    cycles.

    Workload timing follows the paper's methodology: population is
    excluded; the measured phase is [traversals] full walks plus
    [searches] random lookups. For the swizzle representation the
    measured phase additionally begins with the swizzling pass and ends
    with the unswizzling pass, since both are part of using a swizzled
    structure exactly once per open. *)

type mode = Nontx | Tx

type config = {
  structure : Instance.structure;
  repr : Core.Repr.kind;
  elems : int;
  payload : int;  (** payload bytes per element *)
  regions : int;  (** elements are striped round-robin across regions *)
  mode : mode;
  traversals : int;
  searches : int;
  seed : int;
  timing : Nvmpi_cachesim.Timing_config.t;  (** machine timing parameters *)
  cold : bool;
      (** invalidate all caches between population and measurement,
          modelling a freshly mapped region whose contents only exist in
          NVM *)
}

val default : config
(** list / normal / 10000 elements / 32-byte payload / 1 region /
    non-transactional / 10 traversals / 0 searches / seed 42. *)

type measurement = {
  config : config;
  populate_cycles : int;
  measured_cycles : int;
  per_op : float;  (** measured cycles per traversal (or per search) *)
  nodes : int;  (** nodes visited by one traversal *)
  checksum : int;  (** traversal checksum (representation-invariant) *)
  counters : (string * int) list;
      (** machine metric deltas ({!Core.Metrics.diff}) over the measured
          phase only — population is excluded, like [measured_cycles].
          Sorted by counter name; zero deltas omitted. See
          [docs/METRICS.md] for the counter catalogue. *)
  machine : Core.Machine.t;
      (** the machine the experiment ran on, for post-run inspection
          (RIV phase counters, cache statistics) *)
}

val run : config -> measurement
(** Runs one configuration on a fresh machine.
    @raise Invalid_argument for inapplicable combinations (off-holder or
    based pointers with [regions > 1]). *)

val boot :
  ?durability:Core.Durability.t ->
  seed:int ->
  size:int ->
  Core.Repr.kind ->
  Core.Machine.t * Nvmpi_nvregion.Region.t
(** A fresh machine on an empty store with one open region of [size]
    bytes, which the based register names when the representation is
    [Based]. [durability] is the machine's persistence discipline
    (default eager). *)

val measure :
  Core.Machine.t -> (unit -> 'a) -> 'a * int * (string * int) list
(** [measure machine f] runs the measured phase [f] and returns its
    result, the simulated cycles it took and the machine's metric
    deltas over it ({!Core.Metrics.diff}). *)

val applicable : Core.Repr.kind -> regions:int -> bool
(** Whether a representation supports the given region count. *)
