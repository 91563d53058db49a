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
  id : int;  (* its index in [t.entries] *)
  mutable kv : Kvstore.t option;  (* Some iff resident (mapped) *)
  (* The ids of its neighbours in the recency list, stale while it is
     not resident: ints, so relinking an entry stores no pointer and
     pays no write barrier. *)
  mutable newer : int;
  mutable older : int;
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
  (* Every entry by id, below [n_entries]. Entry 0 is the recency
     list's sentinel: the resident entries run from its [older], the
     most recently used, through [older] links to its [newer], the
     least recently used, and back to 0. *)
  mutable entries : entry array;
  mutable n_entries : int;
  mutable resident : int;
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
    entries =
      Array.make 64
        { rid = K.Rid.none; id = 0; kv = None; newer = 0; older = 0 };
    n_entries = 1;
    resident = 0;
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

let add_entry t rid kv =
  let id = t.n_entries in
  if id = Array.length t.entries then begin
    let grown = Array.make (2 * id) t.entries.(0) in
    Array.blit t.entries 0 grown 0 id;
    t.entries <- grown
  end;
  let e = { rid; id; kv; newer = id; older = id } in
  t.entries.(id) <- e;
  t.n_entries <- id + 1;
  e

(* Links resident [e] in as the most recently used entry. *)
let push t e =
  let s = t.entries.(0) in
  e.older <- s.older;
  e.newer <- 0;
  t.entries.(s.older).newer <- e.id;
  s.older <- e.id

let unlink t e =
  t.entries.(e.newer).older <- e.older;
  t.entries.(e.older).newer <- e.newer

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
  unlink t e;
  t.resident <- t.resident - 1;
  incr t.c_unmaps

(* The LRU victim: the tail of the recency list. *)
let evict_lru t =
  match t.entries.(0).newer with
  | 0 -> failwith "Residency.evict_lru: no resident tenant"
  | id ->
      close_tenant t t.entries.(id);
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
  push t e;
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
  let e = add_entry t rid (Some kv) in
  Hashtbl.replace t.tenants tenant e;
  t.resident <- t.resident + 1;
  push t e;
  kv

let kv t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | None ->
      incr t.c_misses;
      (provision t ~tenant, true)
  | Some e -> (
      match e.kv with
      | Some kv ->
          incr t.c_hits;
          if t.entries.(0).older <> e.id then begin
            unlink t e;
            push t e
          end;
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
