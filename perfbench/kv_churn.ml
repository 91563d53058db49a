(* kv-churn: the multi-tenant server's request path under the churn
   mix, on one shard. One request stream (seeded once, not per
   representation, as in [Server.run_shard]) is replayed against one
   machine per representation. A timed op is one request against one
   representation: [Residency.kv], then one [Kvstore] get, put or
   delete. Every get and delete is checked against a host-side
   reference map built from the same stream. *)

module Machine = Core.Machine
module Repr = Core.Repr
module Store = Nvmpi_nvregion.Store
module Kvstore = Nvmpi_apps.Kvstore
module Residency = Nvmpi_server.Residency
module Zipf = Nvmpi_server.Zipf
module Server = Nvmpi_server.Server
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json

type sizes = {
  tenants : int;
  resident : int;  (** residency cap *)
  keys : int;  (** base keyspace per tenant *)
}

let default_sizes = { tenants = 48; resident = 12; keys = 48 }

let reprs = Repr.[ Riv; Off_holder; Fat; Fat_cached; Normal ]
let theta = 0.99
let value_bytes = 64 (* [Server]'s default value-size cap *)
let mix = Server.mix_churn
let region_size = 64 * 1024
let buckets = 32
let log_cap = 4096

let s_create = Trace.name "core.machine_create"
let s_provision = Trace.name "server.provision"
let s_load = Trace.name "apps.load"
let s_hit = Trace.name "server.residency.hit"
let s_miss = Trace.name "server.residency.miss"
let s_get = Trace.name "apps.get"
let s_put = Trace.name "apps.put"
let s_delete = Trace.name "apps.delete"

type kind = Get | Put of string | Delete

(* Class of an op, for the per-class breakdowns. *)
let kind_index = function Get -> 0 | Put _ -> 1 | Delete -> 2

type request = {
  tenant : int;
  key : int;
  kind : kind;
  expect : string option;  (** the reference value before the request *)
}

type state = {
  sizes : sizes;
  st : Random.State.t;
  zt : Zipf.t;
  zk : Zipf.t;
  insert_cursor : (int, int) Hashtbl.t;
  versions : (int * int, int) Hashtbl.t;
  reference : (int * int, string) Hashtbl.t;
  stores : (Machine.t * Residency.t) array;  (** one per representation *)
  mutable current : request option;
}

(* The server's value generator: under a deleting mix the value size
   churns per (key, version). *)
let value_for ~tenant ~key ~version =
  let len = 1 + (((version * 37) + (key * 11)) mod value_bytes) in
  let base = Printf.sprintf "t%d.k%d.v%d." tenant key version in
  let n = String.length base in
  if n >= len then String.sub base 0 len else base ^ String.make (len - n) 'x'

(* The next request, drawn exactly as [Server.run_shard] draws shard
   0's; the reference map is updated to the state after it. *)
let draw t =
  let tenant = Zipf.next t.zt t.st in
  let r = Random.State.float t.st 1.0 in
  let key, kind =
    if r < mix.Server.read then (1 + Zipf.next t.zk t.st, Get)
    else if r < mix.Server.read +. mix.Server.update then begin
      let key = 1 + Zipf.next t.zk t.st in
      let v =
        match Hashtbl.find_opt t.versions (tenant, key) with
        | Some v -> v + 1
        | None -> 0
      in
      Hashtbl.replace t.versions (tenant, key) v;
      (key, Put (value_for ~tenant ~key ~version:v))
    end
    else if r >= mix.Server.read +. mix.Server.update +. mix.Server.insert then
      (1 + Zipf.next t.zk t.st, Delete)
    else begin
      let cur = Option.value ~default:0 (Hashtbl.find_opt t.insert_cursor tenant) in
      Hashtbl.replace t.insert_cursor tenant (cur + 1);
      let key = t.sizes.keys + 1 + (cur mod t.sizes.keys) in
      (key, Put (value_for ~tenant ~key ~version:(cur + 1)))
    end
  in
  let expect = Hashtbl.find_opt t.reference (tenant, key) in
  (match kind with
  | Get -> ()
  | Put v -> Hashtbl.replace t.reference (tenant, key) v
  | Delete ->
      if expect <> None then begin
        Hashtbl.remove t.reference (tenant, key);
        Hashtbl.remove t.versions (tenant, key)
      end);
  { tenant; key; kind; expect }

(* Set-up provisions every tenant and loads its base keyspace at
   version 0, coldest tenant first, so the hottest tenants end
   resident. *)
let build sizes ~seed =
  let reference = Hashtbl.create 1024 and versions = Hashtbl.create 1024 in
  let tenants = List.init sizes.tenants (fun r -> sizes.tenants - 1 - r) in
  List.iter
    (fun tenant ->
      for key = 1 to sizes.keys do
        Hashtbl.replace reference (tenant, key) (value_for ~tenant ~key ~version:0);
        Hashtbl.replace versions (tenant, key) 0
      done)
    tenants;
  let store repr =
    let machine =
      Trace.span s_create (fun () ->
          Machine.create ~seed:((seed * 0x1F3F5) land max_int) ~store:(Store.create ()) ())
    in
    let res =
      Residency.create ~machine ~repr ~cap:sizes.resident ~region_size ~buckets
        ~log_cap ()
    in
    List.iter
      (fun tenant ->
        let kv, _ = Trace.span s_provision (fun () -> Residency.kv res ~tenant) in
        for key = 1 to sizes.keys do
          Trace.span s_load (fun () ->
              Kvstore.put kv ~key (Hashtbl.find reference (tenant, key)))
        done)
      tenants;
    (machine, res)
  in
  {
    sizes;
    st = Random.State.make [| seed; 0; 0x53E6 |];
    zt = Zipf.v ~n:sizes.tenants ~theta;
    zk = Zipf.v ~n:sizes.keys ~theta;
    insert_cursor = Hashtbl.create 64;
    versions;
    reference;
    stores = Array.of_list (List.map store reprs);
    current = None;
  }

let machines t = Array.to_list (Array.map fst t.stores)

(* Op [i] runs request [i / |reprs|] against representation
   [i mod |reprs|]. *)
let op t i =
  let nr = List.length reprs in
  let ri = i mod nr in
  let req =
    match t.current with
    | Some r when ri > 0 -> r
    | _ ->
        let r = draw t in
        t.current <- Some r;
        r
  in
  let m, res = t.stores.(ri) in
  let c0 = Machine.cycles m in
  let hit = Residency.is_resident res ~tenant:req.tenant in
  let ok, c1 =
    try
      let kv, _ =
        Trace.span (if hit then s_hit else s_miss) (fun () ->
            Residency.kv res ~tenant:req.tenant)
      in
      let c1 = Machine.cycles m in
      let ok =
        match req.kind with
        | Get -> Trace.span s_get (fun () -> Kvstore.get kv ~key:req.key) = req.expect
        | Put v ->
            Trace.span s_put (fun () -> Kvstore.put kv ~key:req.key v);
            true
        | Delete ->
            Trace.span s_delete (fun () -> Kvstore.delete kv ~key:req.key)
            = (req.expect <> None)
      in
      (ok, c1)
    with e ->
      prerr_endline ("kv-churn: " ^ Printexc.to_string e);
      (false, Machine.cycles m)
  in
  {
    Harness.cycles = Machine.cycles m - c0;
    ok;
    cls = (ri * 8) + (kind_index req.kind * 2) + if hit then 0 else 1;
    aux = c1 - c0;
  }

(* Plants a wrong expected value for every key the reference holds, so
   the next get of any of them must be counted as a failure. Returns
   the number of entries changed. *)
let corrupt_reference t =
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.reference [] in
  List.iter (fun (k, v) -> Hashtbl.replace t.reference k (v ^ "#")) entries;
  List.length entries

(* Op classes are [repr * 8 + kind * 2 + miss]; [aux] is the
   residency share of an op's cycles. *)
let per_layer t (w : Harness.window) ~rows ~op_ns =
  let p50 l = Trace.median_int (Array.of_list l) in
  let where pred f =
    let out = ref [] in
    for i = w.Harness.ops - 1 downto 0 do
      if pred w.Harness.cls.(i) then out := f i :: !out
    done;
    !out
  in
  let per_repr =
    List.concat_map
      (fun r ->
        let ri = Option.value ~default:(-1) (List.find_index (( = ) r) reprs) in
        Harness.per_class w ~op_ns ~name:(Repr.to_string r) (fun c -> c / 8 = ri))
      Spec.reprs
  in
  let kind_cycles k =
    p50
      (where
         (fun c -> c mod 8 / 2 = k)
         (fun i -> w.Harness.cycles.(i) - w.Harness.aux.(i)))
  in
  let d = Harness.get w.Harness.deltas in
  let frag =
    List.fold_left
      (fun a m -> a + Metrics.get (Machine.metrics m) "alloc.frag_bytes")
      0 (machines t)
  in
  per_repr
  @ [
      ("server.hit_us", Harness.span_p50_us rows "server.residency.hit");
      ("server.miss_us", Harness.span_p50_us rows "server.residency.miss");
      ( "server.residency_hit_ratio",
        Harness.ratio (d "server.residency_hits")
          (d "server.residency_hits" + d "server.residency_misses") );
      ("server.miss_cycles", p50 (where (fun c -> c land 1 = 1) (fun i -> w.Harness.aux.(i))));
      ("apps.get_us", Harness.span_p50_us rows "apps.get");
      ("apps.put_us", Harness.span_p50_us rows "apps.put");
      ("apps.delete_us", Harness.span_p50_us rows "apps.delete");
      ("apps.get_cycles", kind_cycles 0);
      ("apps.put_cycles", kind_cycles 1);
      ("apps.delete_cycles", kind_cycles 2);
      ("palloc.frag_bytes", float_of_int frag);
    ]

let instance t : Harness.instance =
  {
    Harness.op = op t;
    counters =
      (fun () ->
        Harness.merge_counters
          (List.map (fun m -> Metrics.snapshot (Machine.metrics m)) (machines t)));
    context =
      (fun () ->
      [
        ("tenants", Json.Int t.sizes.tenants);
        ("resident_cap", Json.Int t.sizes.resident);
        ("keys_per_tenant", Json.Int t.sizes.keys);
        ("reprs", Json.List (List.map (fun r -> Json.String (Repr.to_string r)) reprs));
        ("mix", Json.String (Server.mix_to_string mix));
      ]);
    per_layer = per_layer t;
  }

let workload ?(sizes = default_sizes) () =
  {
    Harness.name = "kv-churn";
    ops_per_second = 10000.0;
    setups = 10;
    epochs = 10;
    block_ops = 5000;
    setup = (fun ~seed -> instance (build sizes ~seed));
  }
