(** The machine timing model: a three-level cache hierarchy in front of
    DRAM and emulated NVM.

    A simulated memory ([Nvmpi_memsim.Memsim.create ~timing]) charges
    every load and store it performs to its model, and so to the shared
    {!Clock.t}:

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

val create :
  ?cfg:Timing_config.t ->
  ?metrics:Nvmpi_obs.Metrics.t ->
  clock:Clock.t ->
  is_nvm:(int -> bool) ->
  unit ->
  t
(** [create ~clock ~is_nvm ()] builds a timing model charging to [clock];
    [is_nvm addr] decides whether a missed line is served by NVM or
    DRAM. Every charge is counted in [metrics] (a private registry if
    none is given): per-level [cache.l*.hits]/[cache.l*.misses],
    [mem.dram_reads]/[mem.dram_writes]/[mem.nvm_reads]/[mem.nvm_writes]
    line transfers, and [timing.alu_cycles]/[timing.flushes]/
    [timing.fences]. The counters are cumulative; attribute a phase by
    snapshot and diff ({!Nvmpi_obs.Metrics.diff}).
    @raise Invalid_argument if [cfg.line_bits < 3]: memory charges each
    typed access of up to 8 bytes as one line ({!access_line}), which a
    shorter line would undercharge. *)

val cfg : t -> Timing_config.t
val clock : t -> Clock.t

val access : t -> addr:int -> size:int -> write:bool -> unit
(** Charge one access of [size] bytes, one cache access per line it
    touches. Memory charges each bulk-transfer chunk with this. *)

val access_line : t -> addr:int -> write:bool -> unit
(** Charge a single-line access: exactly what {!access} does for any
    naturally aligned power-of-two access of at most a cache line (such
    an access never straddles a line). Memory charges each typed load
    and store with this; using it for an access that could span lines
    would undercharge. *)

val alu : t -> int -> unit
(** [alu t n] charges [n] cycles of register-only computation. *)

val flush : t -> addr:int -> unit
(** Cache-line write-back of the line containing [addr] (clflush): the
    line is invalidated in all levels and, if dirty, a memory write is
    charged at the destination latency. *)

val flush_range : t -> addr:int -> len:int -> unit
(** [flush_range t ~addr ~len] flushes ({!flush}) every line holding a
    byte of [[addr, addr+len)], in address order; nothing if [len] is
    not positive. *)

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

val invalidate_caches : t -> unit
(** Empties all cache levels (simulates a cold start). *)
