(** The simulated machine: one virtual address space ("one run") wired to
    the NVM device, the timing model and the runtime state that the
    pointer representations need.

    A machine bundles:
    - a {!Nvmpi_memsim.Memsim.t} address space with the NV space mapped
      per a {!Nvmpi_addr.Layout.t};
    - a {!Nvmpi_cachesim.Timing.t} cycle model attached to it;
    - a {!Nvmpi_nvregion.Manager.t} that opens NVRegions from a shared
      {!Nvmpi_nvregion.Store.t} at randomized segments;
    - the RIV lookup tables ({!Nvspace}), populated on region open;
    - the fat-pointer runtime ({!Fat_table}: ID-to-base hashtable and
      base-sorted region list, both living in simulated DRAM);
    - the one-entry fat-pointer cache ([lastID]/[lastAddr] globals in
      simulated DRAM) and the based-pointer base register;
    - the run's persistence discipline ({!Durability}), fixed at
      creation.

    Creating a second machine over the same store and re-opening the
    regions models a new run in which every region lands at a different
    virtual address. *)

(** Indices into the machine's counter-cell table; see {!cell}.
    One constant per hot-path counter name. *)
module Cell : sig
  val normal_stores : int
  val normal_loads : int
  val off_holder_stores : int
  val off_holder_loads : int
  val riv_stores : int
  val riv_loads : int
  val fat_stores : int
  val fat_loads : int
  val fat_cached_stores : int
  val fat_cached_loads : int
  val fat_cache_hits : int
  val fat_cache_misses : int
  val based_stores : int
  val based_loads : int
  val swizzle_stores : int
  val swizzle_loads : int
  val swizzle_packed_stores : int
  val swizzle_swizzled : int
  val swizzle_unswizzled : int
  val packed_fat_stores : int
  val packed_fat_loads : int
  val hw_oid_stores : int
  val hw_oid_loads : int
  val dur_traversal_loads : int
  val dur_window_flushes : int
  val dur_helper_flushes : int
  val dur_marks_set : int
  val dur_marks_cleared : int
  val slots : int
end

type t = {
  layout : Nvmpi_addr.Layout.t;
  mem : Nvmpi_memsim.Memsim.t;
  clock : Nvmpi_cachesim.Clock.t;
  timing : Nvmpi_cachesim.Timing.t;
  manager : Nvmpi_nvregion.Manager.t;
  nvspace : Nvspace.t;
  fat : Fat_table.t;
  metrics : Nvmpi_obs.Metrics.t;
      (** the machine-wide counter registry every layer reports into;
          catalogue in [docs/METRICS.md] *)
  cells : Nvmpi_obs.Metrics.Handle.t array;
      (** lazily resolved counter handles, indexed by {!Cell} constants;
          use {!bump}/{!cell}, never index directly *)
  mutable based_base : Nvmpi_addr.Kinds.Vaddr.t;
      (** base register for based pointers; {!Nvmpi_addr.Kinds.Vaddr.null}
          = unset *)
  mutable crash_hook : (unit -> unit) option;
      (** materializes a power failure on this machine: reverts every
          tracked region to its durable bytes and cold-starts the caches.
          Installed by [Nvmpi_faultsim.Tracker.attach]; [None] (the
          default) means no durability tracker is attached and
          [Tx.simulate_crash] conservatively leaves memory as-is. *)
  durability : Durability.t;
      (** the run's persistence discipline; read by [Node.make], the
          kvstore write path, the tenant heap choice and
          [Snapshot.create] *)
  fault : Durability.fault option;
      (** the broken protocol a faultsim selftest double runs; [None]
          for every real run *)
  mutable dram_cursor : int;
  dram_limit : int;
}

exception
  Cross_region_store of {
    holder : Nvmpi_addr.Kinds.Vaddr.t;
    target : Nvmpi_addr.Kinds.Vaddr.t;
    repr : string;
  }
(** Raised when an intra-region-only representation (off-holder, based)
    is asked to store a pointer whose target lives in a different region
    than the holder. *)

val create :
  ?layout:Nvmpi_addr.Layout.t ->
  ?cfg:Nvmpi_cachesim.Timing_config.t ->
  ?metrics:Nvmpi_obs.Metrics.t ->
  ?seed:int ->
  ?durability:Durability.t ->
  ?fault:Durability.fault ->
  store:Nvmpi_nvregion.Store.t ->
  unit ->
  t
(** A fresh address space over [store]. [seed] fixes region placement
    (tests); without it placement is randomized per machine. [metrics]
    lets several machines share one counter registry; by default each
    machine owns a fresh one. [durability] defaults to [Eager] and
    [fault] to none. *)

(** {1 Regions} *)

val create_region : t -> size:int -> Nvmpi_addr.Kinds.Rid.t

val open_region :
  ?at_nvbase:Nvmpi_addr.Kinds.Seg.t ->
  t ->
  Nvmpi_addr.Kinds.Rid.t ->
  Nvmpi_nvregion.Region.t
(** Opens the region, places it at a (random) NV segment, and registers
    it with the RIV tables and the fat-pointer runtime. *)

val migrate_region :
  t -> Nvmpi_addr.Kinds.Rid.t -> size:int -> Nvmpi_nvregion.Region.t
(** Section 4.4's migration: grows the region's image to [size] bytes
    and remaps it (at a fresh segment). Only position-independent
    contents survive, which is the point: off-holder/RIV structures keep
    working after migration, absolute pointers would dangle.
    @raise Invalid_argument if [size] does not exceed the current size
    or exceeds a segment. *)

val remap_region :
  t -> Nvmpi_addr.Kinds.Rid.t -> Nvmpi_nvregion.Region.t
(** Closes the region (persisting its image) and reopens it at a fresh
    randomized NV segment, guaranteed different from the one it just
    vacated. Models "the region moved" within a single run — the
    adversarial event every position-independent representation must
    survive and absolute pointers must not. Preserves the based-pointer
    base register if it pointed at this region (retargeting it to the
    new base). Deterministic under a seeded machine.
    @raise Invalid_argument if the region is not open. *)

val close_region : t -> Nvmpi_addr.Kinds.Rid.t -> unit
(** Persists the image back to the store, unmaps the region, and drops
    it from the RIV tables, the fat runtime and — if it holds this
    region — the one-entry [lastID]/[lastAddr] fat-pointer cache (an
    unobserved bookkeeping write, like the manager's image copies). A
    RID-table page left all zero is released. *)

val close_all : t -> unit
val region : t -> Nvmpi_addr.Kinds.Rid.t -> Nvmpi_nvregion.Region.t option
val region_exn : t -> Nvmpi_addr.Kinds.Rid.t -> Nvmpi_nvregion.Region.t

val region_of_addr :
  t -> Nvmpi_addr.Kinds.Vaddr.t -> Nvmpi_nvregion.Region.t option

val rid_of_addr_exn :
  t -> Nvmpi_addr.Kinds.Vaddr.t -> Nvmpi_addr.Kinds.Rid.t
(** Region ID of the open region containing the address.
    @raise Invalid_argument if no open region contains it. *)

val set_based_region : t -> Nvmpi_addr.Kinds.Rid.t -> unit
(** Selects the region whose base the based-pointer representation uses
    as its (register-resident) base variable. *)

(** {1 Simulated DRAM} *)

val dram_alloc : t -> ?align:int -> int -> Nvmpi_addr.Kinds.Vaddr.t
(** Bump-allocates volatile simulated memory (never persisted). *)

val lastid_addr : t -> Nvmpi_addr.Kinds.Vaddr.t
val lastaddr_addr : t -> Nvmpi_addr.Kinds.Vaddr.t
(** DRAM addresses of the fat-pointer-cache globals. *)

(** {1 Shorthands} *)

val load64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val store64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
val alu : t -> int -> unit
val cycles : t -> int
val is_nvm : t -> Nvmpi_addr.Kinds.Vaddr.t -> bool

(** {1 Observability} *)

val metrics : t -> Nvmpi_obs.Metrics.t

val count : ?by:int -> t -> string -> unit
(** [count t name] bumps counter [name] in the machine's registry —
    the hook the pointer representations use to report events at the
    point of cost. *)

(** {1 Fast paths}

    The pre-resolved-counter and fused-access machinery behind the
    pointer representations' store/load paths. Observational
    contract: every entry point here is bit-for-bit equivalent to its
    generic counterpart ([count] / [load64] / [store64]) — same
    counters registered at the same moments, same cycles charged in the
    same order — it only skips host-side indirections (the string
    lookup, the observer closure). *)

val cell : t -> int -> string -> Nvmpi_obs.Metrics.Handle.t
(** [cell t i name] is the handle for counter [name] cached in cell
    slot [i] (a {!Cell} constant), resolving and registering it on
    first use. *)

val bump : t -> int -> string -> unit
(** [bump t i name] increments the counter behind cell slot [i] —
    the pre-resolved equivalent of [count t name]. *)

val load64_fast : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
val store64_fast : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
(** Fused 64-bit accesses: when the machine's timing model is the sole
    observer (the steady state — [create] attaches it as observer 0),
    the data access and the single-line cache charge are made directly,
    skipping the observer closure. Otherwise (durability tracker
    attached) they fall back to the generic [load64]/[store64], so
    observer semantics and event order are preserved exactly. *)
