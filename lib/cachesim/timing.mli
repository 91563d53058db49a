(** The machine timing model: a three-level cache hierarchy in front of
    DRAM and emulated NVM, driven by {!Memsim} access events.

    Attach an instance to a {!Memsim.t} with {!attach}; from then on every
    simulated load/store is charged to the shared {!Clock.t}:

    - L1 hit: [l1_hit] cycles;
    - L2/L3 hit: the corresponding hit latency;
    - miss everywhere: the DRAM or NVM read latency, chosen by the
      address classifier (the NV space is NVM, everything else DRAM);
    - dirty evictions from L3 are charged the destination write latency.

    The model also exposes explicit charges used by the pointer
    representations and the transactional store: {!alu} for register
    arithmetic, {!flush} for cache-line write-back ([clflush]) and
    {!fence} for persist barriers ([wbarrier], 115 ns in the paper's PMEP
    configuration). *)

type t

type mem_stats = {
  mutable dram_reads : int;
  mutable dram_writes : int;
  mutable nvm_reads : int;
  mutable nvm_writes : int;
  mutable flushes : int;
  mutable fences : int;
  mutable alu_cycles : int;
}

val create :
  ?cfg:Timing_config.t ->
  ?metrics:Nvmpi_obs.Metrics.t ->
  clock:Clock.t ->
  is_nvm:(int -> bool) ->
  unit ->
  t
(** [create ~clock ~is_nvm ()] builds a timing model charging to [clock];
    [is_nvm addr] decides whether a missed line is served by NVM or
    DRAM. Every charge is mirrored into [metrics] (a private registry if
    none is given): per-level [cache.l*.hits]/[cache.l*.misses],
    [mem.dram_reads]/[mem.dram_writes]/[mem.nvm_reads]/[mem.nvm_writes]
    line transfers, and [timing.alu_cycles]/[timing.flushes]/
    [timing.fences]. Unlike {!mem_stats} these counters are cumulative —
    {!reset_stats} does not clear them; attribute phases by snapshot and
    diff ({!Nvmpi_obs.Metrics.diff}). *)

val attach : t -> Nvmpi_memsim.Memsim.t -> unit
(** Registers the model as an access observer of the given memory. *)

val cfg : t -> Timing_config.t
val clock : t -> Clock.t

val access : t -> addr:int -> size:int -> write:bool -> unit
(** Charge one access explicitly (the observer calls this). *)

val access_line : t -> addr:int -> write:bool -> unit
(** Charge a single-line access: exactly what {!access} does for any
    naturally aligned power-of-two access of at most a cache line (such
    an access never straddles a line). The machine's fused deref path
    calls this directly after a [Memsim.*_fused] data access,
    bypassing the observer closure; using it for an access that could
    span lines would undercharge. *)

val alu : t -> int -> unit
(** [alu t n] charges [n] cycles of register-only computation. *)

val flush : t -> addr:int -> unit
(** Cache-line write-back of the line containing [addr] (clflush): the
    line is invalidated in all levels and, if dirty, a memory write is
    charged at the destination latency. *)

val fence : t -> unit
(** Persist barrier ([wbarrier]). *)

(** {1 Persistence observers} *)

type persist_event =
  | Flushed of int  (** a {!flush} retired for the line holding this address *)
  | Fenced  (** a {!fence} retired *)

val set_persist_hook : t -> (persist_event -> unit) option -> unit
(** Installs (or, with [None], removes) a callback invoked after each
    {!flush}/{!fence} is charged — the attachment point the
    fault-injection subsystem uses to derive durability state from the
    persist-instruction stream. The hook only observes: with no hook
    installed (the default) behaviour and cycle accounting are
    bit-for-bit unchanged, and the hook itself must not issue charges. *)

val l1 : t -> Cache_level.t
val l2 : t -> Cache_level.t
val l3 : t -> Cache_level.t
val mem_stats : t -> mem_stats

val reset_stats : t -> unit
(** Clears hit/miss and memory counters (does not touch the clock or the
    cache contents). *)

val invalidate_caches : t -> unit
(** Empties all cache levels (simulates a cold start). *)

val pp_stats : Format.formatter -> t -> unit
