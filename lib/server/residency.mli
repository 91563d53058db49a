(** Per-shard tenant residency: one NVRegion-backed {!Nvmpi_apps.Kvstore}
    per tenant, kept mapped under an LRU policy with a fixed capacity.

    This is the mechanism that turns the server workload into a
    cross-region pointer-machinery stress: every residency miss closes
    the least-recently-used tenant's kvstore cleanly
    ({!Nvmpi_apps.Kvstore.close}, so its next reopen skips the heap
    sweep) and then its region (persisting its image,
    dropping it from the RIV tables and the fat-pointer runtime,
    invalidating the one-entry fat cache) and opens the requested one —
    at a {e fresh randomized segment} for the self-contained
    representations, so RIV table entries churn and fat-cached state is
    adversarially invalidated thousands of times per run.

    Representations whose persisted slots do not survive a move
    ([not (Repr.position_independent repr)], i.e. normal and swizzle in
    its steady swizzled state) are {e pinned}: each tenant is assigned a
    fixed NV segment derived from its ID and every reopen maps it back
    there. A real multi-tenant server could not relocate those tenants
    either — that asymmetry is the paper's problem statement at fleet
    scale (see [docs/SERVER.md]).

    Tenants are provisioned lazily: the first touch creates the region,
    formats a transactional object store in it and creates the kvstore.

    All counters go to the owning machine's registry under [server.*]
    (catalogue in [docs/METRICS.md]). *)

type t

val create :
  machine:Core.Machine.t ->
  repr:Core.Repr.kind ->
  cap:int ->
  region_size:int ->
  buckets:int ->
  log_cap:int ->
  unit ->
  t
(** [cap] is the maximum number of concurrently resident (mapped)
    tenants; [region_size] the per-tenant region image size in bytes;
    [buckets]/[log_cap] are passed to the kvstore / object store.
    @raise Invalid_argument if [cap < 1]. *)

val repr : t -> Core.Repr.kind
val resident_count : t -> int

val kv : t -> tenant:int -> Nvmpi_apps.Kvstore.t * bool
(** [kv t ~tenant] returns the tenant's kvstore handle, provisioning
    and/or mapping the tenant as needed and evicting the LRU tenant if
    the residency set is full. The boolean is [true] iff this call
    {e provisioned} the tenant (first touch: region creation plus
    object-store and kvstore formatting — a cost the request loop
    excludes from per-op tail samples). For the based representation
    the machine's base register is retargeted to the tenant's region
    before returning. *)

val is_resident : t -> tenant:int -> bool
val is_provisioned : t -> tenant:int -> bool

val region_base : t -> tenant:int -> Nvmpi_addr.Kinds.Vaddr.t option
(** Current base of the tenant's region, if resident — lets tests
    assert that an evicted-and-reaccessed tenant really moved (or, for
    pinned representations, really did not). *)

val close_all : t -> unit
(** Drains the residency set (shutdown): closes every resident tenant as
    an eviction does, counting [server.unmaps] but not
    [server.evictions]. *)
