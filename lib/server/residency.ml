module Machine = Core.Machine
module Repr = Core.Repr
module Region = Nvmpi_nvregion.Region
module Objstore = Nvmpi_tx.Objstore
module Kvstore = Nvmpi_apps.Kvstore
module Metrics = Nvmpi_obs.Metrics
module Layout = Nvmpi_addr.Layout
module K = Nvmpi_addr.Kinds

type entry = {
  rid : K.Rid.t;
  mutable kv : Kvstore.t option;  (* Some iff resident (mapped) *)
  mutable last : int;  (* LRU stamp; strictly increasing, so unique *)
}

type t = {
  machine : Machine.t;
  repr : Repr.kind;
  cap : int;
  region_size : int;
  buckets : int;
  log_cap : int;
  pinned : bool;
  tenants : (int, entry) Hashtbl.t;
  mutable resident : int;
  mutable clock : int;
  (* hot counters, resolved once *)
  c_maps : int ref;
  c_unmaps : int ref;
  c_evictions : int ref;
  c_creates : int ref;
  c_hits : int ref;
  c_misses : int ref;
  c_pinned_reopens : int ref;
}

let create ~machine ~repr ~cap ~region_size ~buckets ~log_cap () =
  if cap < 1 then invalid_arg "Residency.create: cap must be >= 1";
  let m = Machine.metrics machine in
  {
    machine;
    repr;
    cap;
    region_size;
    buckets;
    log_cap;
    pinned = not (Repr.position_independent repr);
    tenants = Hashtbl.create 64;
    resident = 0;
    clock = 0;
    c_maps = Metrics.counter m "server.maps";
    c_unmaps = Metrics.counter m "server.unmaps";
    c_evictions = Metrics.counter m "server.evictions";
    c_creates = Metrics.counter m "server.tenant_creates";
    c_hits = Metrics.counter m "server.residency_hits";
    c_misses = Metrics.counter m "server.residency_misses";
    c_pinned_reopens = Metrics.counter m "server.pinned_reopens";
  }

let repr t = t.repr
let resident_count t = t.resident

let touch t e =
  t.clock <- t.clock + 1;
  e.last <- t.clock

(* Pinned tenants always map at the same segment, derived from the
   tenant ID: segment numbers are unique per tenant, so a reopen can
   never find its slot occupied. *)
let pinned_seg t ~tenant =
  K.Seg.v (Layout.data_nvbase_min t.machine.Machine.layout + 1 + tenant)

(* A clean close of the tenant's heap first, so its next reopen skips
   the heap sweep, then the region. *)
let close_tenant t e =
  Option.iter Kvstore.close e.kv;
  Machine.close_region t.machine e.rid;
  e.kv <- None;
  t.resident <- t.resident - 1;
  incr t.c_unmaps

(* The LRU victim: the resident entry with the smallest stamp. Stamps
   are unique (the clock is strictly increasing), so the minimum is
   unique and the fold is deterministic whatever the hashtable's
   iteration order. *)
let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match (e.kv, acc) with
        | None, _ -> acc
        | Some _, Some v when v.last <= e.last -> acc
        | Some _, _ -> Some e)
      t.tenants None
  in
  match victim with
  | None -> failwith "Residency.evict_lru: no resident tenant"
  | Some e ->
      close_tenant t e;
      incr t.c_evictions

let make_room t = if t.resident >= t.cap then evict_lru t

let open_tenant t ~tenant e =
  let at_nvbase = if t.pinned then Some (pinned_seg t ~tenant) else None in
  let region = Machine.open_region ?at_nvbase t.machine e.rid in
  if t.pinned then incr t.c_pinned_reopens;
  incr t.c_maps;
  if t.repr = Repr.Based then Machine.set_based_region t.machine e.rid;
  let os = Objstore.attach t.machine region in
  let kv = Kvstore.attach os ~repr:t.repr ~name:"kv" in
  e.kv <- Some kv;
  t.resident <- t.resident + 1;
  kv

let provision t ~tenant =
  make_room t;
  let rid = Machine.create_region t.machine ~size:t.region_size in
  let at_nvbase = if t.pinned then Some (pinned_seg t ~tenant) else None in
  let region = Machine.open_region ?at_nvbase t.machine rid in
  if t.pinned then incr t.c_pinned_reopens;
  incr t.c_maps;
  incr t.c_creates;
  if t.repr = Repr.Based then Machine.set_based_region t.machine rid;
  (* On a snapshot machine (docs/SNAPSHOT.md) tenants run the
     un-instrumented write path: the flush-free freelist heap instead of
     palloc's logged one, and [Kvstore.create]'s default picks the plain
     (no undo-log) store path. *)
  let heap =
    match t.machine.Machine.durability with
    | Core.Durability.Snapshot _ -> `Freelist
    | Eager | Traverse -> `Palloc
  in
  let os = Objstore.create t.machine region ~log_cap:t.log_cap ~heap () in
  let kv = Kvstore.create os ~repr:t.repr ~name:"kv" ~buckets:t.buckets () in
  let e = { rid; kv = Some kv; last = 0 } in
  Hashtbl.replace t.tenants tenant e;
  t.resident <- t.resident + 1;
  touch t e;
  kv

let kv t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | None ->
      incr t.c_misses;
      (provision t ~tenant, true)
  | Some e -> (
      touch t e;
      match e.kv with
      | Some kv ->
          incr t.c_hits;
          (* The based base register is machine-global: another resident
             tenant may have claimed it since this tenant's last op. *)
          if t.repr = Repr.Based then Machine.set_based_region t.machine e.rid;
          (kv, false)
      | None ->
          incr t.c_misses;
          make_room t;
          (open_tenant t ~tenant e, false))

let is_resident t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some { kv = Some _; _ } -> true
  | _ -> false

let is_provisioned t ~tenant = Hashtbl.mem t.tenants tenant

let region_base t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some { kv = Some _; rid; _ } ->
      Option.map Region.base (Machine.region t.machine rid)
  | _ -> None

let close_all t =
  (* Deterministic drain order: by tenant ID. *)
  let resident =
    Hashtbl.fold
      (fun tenant e acc ->
        match e.kv with Some _ -> (tenant, e) :: acc | None -> acc)
      t.tenants []
  in
  List.iter
    (fun (_, e) -> close_tenant t e)
    (List.sort (fun (a, _) (b, _) -> compare a b) resident)
