module Machine = Core.Machine
module Repr = Core.Repr
module Store = Nvmpi_nvregion.Store
module Kvstore = Nvmpi_apps.Kvstore
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json
module Pool = Nvmpi_parsweep.Pool

(* Operation mixes ---------------------------------------------------- *)

type mix = { read : float; update : float; insert : float; delete : float }

let mix_a = { read = 0.5; update = 0.5; insert = 0.0; delete = 0.0 }
let mix_b = { read = 0.95; update = 0.05; insert = 0.0; delete = 0.0 }
let mix_c = { read = 1.0; update = 0.0; insert = 0.0; delete = 0.0 }
let mix_insert = { read = 0.5; update = 0.25; insert = 0.25; delete = 0.0 }

(* Allocator-churn mix: heavy overwrites plus real deletes, so value
   blocks are freed and reallocated all run long. Deleting mixes also
   churn the value {e size} (see [value_for]), exercising every size
   class of the palloc heap behind the tenants' object stores. *)
let mix_churn = { read = 0.3; update = 0.4; insert = 0.15; delete = 0.15 }

let mix_valid m =
  m.read >= 0.0 && m.update >= 0.0 && m.insert >= 0.0 && m.delete >= 0.0
  && Float.abs (m.read +. m.update +. m.insert +. m.delete -. 1.0) < 1e-9

let mix_to_string m =
  (* The delete component is omitted when zero so reports from
     pre-delete configurations render byte-identically. *)
  Printf.sprintf "read:%g,update:%g,insert:%g" m.read m.update m.insert
  ^ (if m.delete > 0.0 then Printf.sprintf ",delete:%g" m.delete else "")

let mix_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "a" -> Ok mix_a
  | "b" -> Ok mix_b
  | "c" -> Ok mix_c
  | "insert" -> Ok mix_insert
  | "churn" -> Ok mix_churn
  | s -> (
      (* read:F,update:F,insert:F — order-insensitive, all parts required *)
      let parts = String.split_on_char ',' s in
      let parse_part acc part =
        match (acc, String.split_on_char ':' part) with
        | Error _, _ -> acc
        | Ok m, [ key; v ] -> (
            match float_of_string_opt v with
            | None -> Error (Printf.sprintf "mix: %S is not a number" v)
            | Some f -> (
                match String.trim key with
                | "read" -> Ok { m with read = f }
                | "update" -> Ok { m with update = f }
                | "insert" -> Ok { m with insert = f }
                | "delete" -> Ok { m with delete = f }
                | k -> Error (Printf.sprintf "mix: unknown op class %S" k)))
        | Ok _, _ ->
            Error (Printf.sprintf "mix: expected class:prob, got %S" part)
      in
      match
        List.fold_left parse_part
          (Ok { read = 0.0; update = 0.0; insert = 0.0; delete = 0.0 })
          parts
      with
      | Error _ as e -> e
      | Ok m ->
          if mix_valid m then Ok m
          else
            Error
              (Printf.sprintf
                 "mix: probabilities must be non-negative and sum to 1 (got %s)"
                 (mix_to_string m)))

(* Configuration ------------------------------------------------------ *)

type config = {
  tenants : int;
  theta : float;
  mix : mix;
  ops : int;
  seed : int;
  shards : int;
  resident : int;
  keys_per_tenant : int;
  value_bytes : int;
  region_size : int;
  buckets : int;
  log_cap : int;
  reprs : Repr.kind list;
  durability : Core.Durability.t;
}

let default =
  {
    tenants = 1000;
    theta = 0.99;
    mix = mix_b;
    ops = 5000;
    seed = 42;
    shards = 4;
    resident = 64;
    keys_per_tenant = 48;
    value_bytes = 64;
    region_size = 64 * 1024;
    buckets = 32;
    log_cap = 4096;
    reprs = Repr.all;
    durability = Core.Durability.Eager;
  }

let validate c =
  let err fmt = Printf.ksprintf Result.error fmt in
  if c.tenants < 1 then err "tenants must be >= 1"
  else if c.theta < 0.0 || c.theta >= 1.0 then err "theta must be in [0, 1)"
  else if not (mix_valid c.mix) then
    err "mix probabilities must be non-negative and sum to 1"
  else if c.ops < 0 then err "ops must be >= 0"
  else if c.shards < 1 then err "shards must be >= 1"
  else if c.shards > c.tenants then
    err "shards (%d) must not exceed tenants (%d)" c.shards c.tenants
  else if c.resident < 1 then err "resident capacity must be >= 1"
  else if c.keys_per_tenant < 1 then err "keys-per-tenant must be >= 1"
  else if c.value_bytes < 1 || c.value_bytes > 1024 then
    err "value-bytes must be in [1, 1024]"
  else if c.buckets < 1 then err "buckets must be >= 1"
  else if c.log_cap < 512 then err "log-cap must be >= 512"
  else if c.region_size < Store.header_bytes + c.log_cap + 8192 then
    err "region-size %d too small for header + log + heap" c.region_size
  else if c.reprs = [] then err "at least one representation is required"
  else Ok ()

(* Sharding ----------------------------------------------------------- *)

(* Tenant [t] lives on shard [t mod shards]; the shard's rank [r]
   (zipfian popularity rank within the shard) maps back to the global
   tenant ID [r * shards + sh]. *)
let shard_tenants c sh = (c.tenants - sh + c.shards - 1) / c.shards
let shard_ops c sh = (c.ops / c.shards) + (if sh < c.ops mod c.shards then 1 else 0)

(* One shard of one representation: an independent work item. *)
type shard_out = {
  o_counters : (string * int) list;
  o_samples : int array;  (* per-op simulated cycles, op order *)
  o_cycles : int;
}

let value_for c ~tenant ~key ~version =
  (* Under a deleting (churn) mix the value size itself churns —
     deterministically per (key, version) — so overwrites move blocks
     across allocator size classes instead of reusing one class. *)
  let len =
    if c.mix.delete > 0.0 then 1 + (((version * 37) + (key * 11)) mod c.value_bytes)
    else c.value_bytes
  in
  let base = Printf.sprintf "t%d.k%d.v%d." tenant key version in
  let n = String.length base in
  if n >= len then String.sub base 0 len
  else base ^ String.make (len - n) 'x'

let run_shard c ~repr ~sh () =
  let n_sh = shard_tenants c sh in
  let ops_sh = shard_ops c sh in
  (* Seeded per shard, NOT per representation: every representation
     replays the identical request stream (and identical region
     placement draws), so cross-representation numbers are
     apples-to-apples. *)
  let st = Random.State.make [| c.seed; sh; 0x53E6 |] in
  let machine_seed = (c.seed * 0x1F3F5) lxor (sh * 0x61) land max_int in
  let store = Store.create () in
  let machine =
    Machine.create ~seed:machine_seed ~durability:c.durability ~store ()
  in
  let res =
    Residency.create ~machine ~repr ~cap:c.resident
      ~region_size:c.region_size ~buckets:c.buckets ~log_cap:c.log_cap ()
  in
  let metrics = Machine.metrics machine in
  let c_requests = Metrics.counter metrics "server.requests" in
  let c_reads = Metrics.counter metrics "server.reads" in
  let c_read_misses = Metrics.counter metrics "server.read_misses" in
  let c_updates = Metrics.counter metrics "server.updates" in
  let c_inserts = Metrics.counter metrics "server.inserts" in
  let c_deletes = Metrics.counter metrics "server.deletes" in
  let c_delete_misses = Metrics.counter metrics "server.delete_misses" in
  let zt = Zipf.v ~n:n_sh ~theta:c.theta in
  let zk = Zipf.v ~n:c.keys_per_tenant ~theta:c.theta in
  let insert_cursor = Hashtbl.create 64 in
  let versions = Hashtbl.create 64 in
  let samples = Array.make (max ops_sh 1) 0 in
  let n_samples = ref 0 in
  for _ = 1 to ops_sh do
    let rank = Zipf.next zt st in
    let tenant = (rank * c.shards) + sh in
    let c0 = Machine.cycles machine in
    let kv, provisioned = Residency.kv res ~tenant in
    let r = Random.State.float st 1.0 in
    incr c_requests;
    if r < c.mix.read then begin
      let key = 1 + Zipf.next zk st in
      incr c_reads;
      if Kvstore.get kv ~key = None then incr c_read_misses
    end
    else if r < c.mix.read +. c.mix.update then begin
      let key = 1 + Zipf.next zk st in
      incr c_updates;
      let v =
        match Hashtbl.find_opt versions (tenant, key) with
        | Some v -> v + 1
        | None -> 0
      in
      Hashtbl.replace versions (tenant, key) v;
      Kvstore.put kv ~key (value_for c ~tenant ~key ~version:v)
    end
    else if
      c.mix.delete > 0.0 && r >= c.mix.read +. c.mix.update +. c.mix.insert
    then begin
      (* Delete: zipfian key from the base keyspace; misses count. The
         guard keeps delete-free mixes on exactly the pre-delete branch
         structure (float sums need not hit 1.0 exactly). *)
      let key = 1 + Zipf.next zk st in
      incr c_deletes;
      if not (Kvstore.delete kv ~key) then incr c_delete_misses
      else Hashtbl.remove versions (tenant, key)
    end
    else begin
      (* Insert: fresh keys from an extension window of the keyspace's
         own size, wrapping when exhausted (the region stays bounded). *)
      let cur =
        match Hashtbl.find_opt insert_cursor tenant with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.add insert_cursor tenant r;
            r
      in
      let key = c.keys_per_tenant + 1 + (!cur mod c.keys_per_tenant) in
      incr cur;
      incr c_inserts;
      Kvstore.put kv ~key (value_for c ~tenant ~key ~version:!cur)
    end;
    let dc = Machine.cycles machine - c0 in
    (* Provisioning (region creation + object-store/kvstore formatting)
       is a one-time setup cost, not a steady-state op: it is excluded
       from the tail samples but stays in the cycle/counter totals. *)
    if not provisioned then begin
      samples.(!n_samples) <- dc;
      incr n_samples
    end
  done;
  Residency.close_all res;
  {
    o_counters = Metrics.snapshot metrics;
    o_samples = Array.sub samples 0 !n_samples;
    o_cycles = Machine.cycles machine;
  }

(* Merging ------------------------------------------------------------ *)

type tail = { p50 : int; p90 : int; p99 : int; max : int }

type repr_result = {
  repr : Repr.kind;
  requests : int;
  total_cycles : int;
  tail : tail;
  counters : (string * int) list;
}

type report = { config : config; results : repr_result list }

let percentile sorted pct =
  let len = Array.length sorted in
  if len = 0 then 0
  else
    let rank = max 1 (((len * pct) + 99) / 100) in
    sorted.(rank - 1)

let tail_of_samples samples =
  if Array.length samples = 0 then { p50 = 0; p90 = 0; p99 = 0; max = 0 }
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    {
      p50 = percentile sorted 50;
      p90 = percentile sorted 90;
      p99 = percentile sorted 99;
      max = sorted.(Array.length sorted - 1);
    }
  end

let merge_counters outs =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun o ->
      List.iter
        (fun (name, v) ->
          Hashtbl.replace tbl name
            (v + Option.value ~default:0 (Hashtbl.find_opt tbl name)))
        o.o_counters)
    outs;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let merge_repr config repr outs =
  let samples = Array.concat (List.map (fun o -> o.o_samples) outs) in
  let tail = tail_of_samples samples in
  let counters = merge_counters outs in
  let requests = Option.value ~default:0 (List.assoc_opt "server.requests" counters) in
  (* The tail values are merge-computed (percentiles cannot be summed);
     they join the counter list so one catalogue covers the whole
     server surface, but only exist at this level. *)
  let counters =
    List.sort compare
      (("server.tail.p50_cycles", tail.p50)
      :: ("server.tail.p90_cycles", tail.p90)
      :: ("server.tail.p99_cycles", tail.p99)
      :: ("server.tail.max_cycles", tail.max)
      :: counters)
  in
  ignore config;
  {
    repr;
    requests;
    total_cycles = List.fold_left (fun a o -> a + o.o_cycles) 0 outs;
    tail;
    counters;
  }

let run ?(jobs = 1) c =
  (match validate c with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Server.run: " ^ msg));
  let reprs = Array.of_list c.reprs in
  let tasks =
    List.concat
      (List.init (Array.length reprs) (fun ri ->
           List.init c.shards (fun sh -> run_shard c ~repr:reprs.(ri) ~sh)))
  in
  let outs = Pool.map ~jobs tasks in
  let rec group ri outs acc =
    if ri >= Array.length reprs then List.rev acc
    else
      let mine, rest =
        (List.filteri (fun i _ -> i < c.shards) outs,
         List.filteri (fun i _ -> i >= c.shards) outs)
      in
      group (ri + 1) rest (merge_repr c reprs.(ri) mine :: acc)
  in
  { config = c; results = group 0 outs [] }

(* JSON --------------------------------------------------------------- *)

let schema_version = 1

let config_to_json c =
  Json.Obj
    ([
       ("tenants", Json.Int c.tenants);
       ("theta", Json.Float c.theta);
       ("mix", Json.String (mix_to_string c.mix));
       ("ops", Json.Int c.ops);
       ("seed", Json.Int c.seed);
     ]
    @ Core.Durability.report_fields c.durability
    @ [
        ("shards", Json.Int c.shards);
        ("resident", Json.Int c.resident);
        ("keys_per_tenant", Json.Int c.keys_per_tenant);
        ("value_bytes", Json.Int c.value_bytes);
        ("region_size", Json.Int c.region_size);
        ("buckets", Json.Int c.buckets);
        ("log_cap", Json.Int c.log_cap);
        ( "reprs",
          Json.List
            (List.map (fun r -> Json.String (Repr.to_string r)) c.reprs) );
      ])

let report_to_json r =
  Json.Obj
    [
      ("kind", Json.String "server");
      ("schema_version", Json.Int schema_version);
      ("params", config_to_json r.config);
      ( "reprs",
        Json.List
          (List.map
             (fun res ->
               Json.Obj
                 [
                   ("name", Json.String (Repr.to_string res.repr));
                   ("requests", Json.Int res.requests);
                   ("total_cycles", Json.Int res.total_cycles);
                   ( "tail_cycles",
                     Json.Obj
                       [
                         ("p50", Json.Int res.tail.p50);
                         ("p90", Json.Int res.tail.p90);
                         ("p99", Json.Int res.tail.p99);
                         ("max", Json.Int res.tail.max);
                       ] );
                   ("counters", Metrics.json_of_counters res.counters);
                 ])
             r.results) );
    ]

(* Human-readable summary --------------------------------------------- *)

let get_counter res name =
  Option.value ~default:0 (List.assoc_opt name res.counters)

let print_report r =
  let c = r.config in
  Printf.printf
    "server: %d tenants on %d shard(s), %d ops/repr, theta %g, mix %s, \
     resident %d, seed %d\n"
    c.tenants c.shards c.ops c.theta (mix_to_string c.mix) c.resident c.seed;
  Printf.printf "  %-11s %9s %8s %8s %8s %9s %10s %10s %12s\n" "repr"
    "requests" "creates" "maps" "evicts" "p50cyc" "p99cyc" "maxcyc"
    "total cyc";
  List.iter
    (fun res ->
      Printf.printf "  %-11s %9d %8d %8d %8d %9d %10d %10d %12d\n"
        (Repr.to_string res.repr) res.requests
        (get_counter res "server.tenant_creates")
        (get_counter res "server.maps")
        (get_counter res "server.evictions")
        res.tail.p50 res.tail.p99 res.tail.max res.total_cycles)
    r.results
