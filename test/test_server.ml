(* The multi-tenant region server: zipfian generator statistics, the
   determinism contract (byte-identical reports at any --jobs and across
   reruns), residency eviction/remap correctness per representation, and
   counter bookkeeping. *)

open Nvmpi_server
module Repr = Core.Repr
module Machine = Core.Machine
module Json = Nvmpi_obs.Json

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* {1 Zipf} *)

let test_zipf_validate () =
  Alcotest.check_raises "n = 0" (Invalid_argument "Zipf.v: n must be >= 1")
    (fun () -> ignore (Zipf.v ~n:0 ~theta:0.5));
  Alcotest.check_raises "theta = 1"
    (Invalid_argument "Zipf.v: theta must be in [0, 1)") (fun () ->
      ignore (Zipf.v ~n:10 ~theta:1.0));
  Alcotest.check_raises "theta < 0"
    (Invalid_argument "Zipf.v: theta must be in [0, 1)") (fun () ->
      ignore (Zipf.v ~n:10 ~theta:(-0.1)))

let test_zipf_range () =
  let z = Zipf.v ~n:7 ~theta:0.99 in
  let st = Random.State.make [| 11 |] in
  for _ = 1 to 10_000 do
    let r = Zipf.next z st in
    if r < 0 || r >= 7 then
      Alcotest.failf "draw %d outside [0, 7)" r
  done

let test_zipf_determinism () =
  let draws seed =
    let z = Zipf.v ~n:100 ~theta:0.9 in
    let st = Random.State.make [| seed |] in
    List.init 200 (fun _ -> Zipf.next z st)
  in
  check (Alcotest.list Alcotest.int) "same seed, same sequence" (draws 5)
    (draws 5);
  check_bool "different seed, different sequence" false (draws 5 = draws 6)

(* Pearson chi-square of 50k draws against the generator's own
   closed-form rank probabilities. 19 degrees of freedom: the critical
   value at p = 0.001 is 43.8; the seed is fixed, so the statistic is a
   constant of the implementation and the margin only has to absorb
   implementation changes, not sampling noise. *)
let chi_square ~n ~theta ~draws ~seed =
  let z = Zipf.v ~n ~theta in
  let st = Random.State.make [| seed |] in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = Zipf.next z st in
    counts.(r) <- counts.(r) + 1
  done;
  let chi2 = ref 0.0 in
  for r = 0 to n - 1 do
    let expected = Zipf.expected_prob z r *. float_of_int draws in
    let d = float_of_int counts.(r) -. expected in
    chi2 := !chi2 +. (d *. d /. expected)
  done;
  !chi2

let test_zipf_chi_square () =
  let chi2 = chi_square ~n:20 ~theta:0.99 ~draws:50_000 ~seed:42 in
  if chi2 > 43.8 then
    Alcotest.failf "chi-square %.1f exceeds 43.8 (p=0.001, 19 dof)" chi2

let test_zipf_uniform_chi_square () =
  let chi2 = chi_square ~n:20 ~theta:0.0 ~draws:50_000 ~seed:42 in
  if chi2 > 43.8 then
    Alcotest.failf "uniform chi-square %.1f exceeds 43.8 (p=0.001, 19 dof)"
      chi2

let test_zipf_skew () =
  (* Rank probabilities decrease; at theta 0.99 rank 0 dominates. *)
  let z = Zipf.v ~n:50 ~theta:0.99 in
  for r = 0 to 48 do
    if Zipf.expected_prob z r < Zipf.expected_prob z (r + 1) then
      Alcotest.failf "expected_prob not decreasing at rank %d" r
  done;
  check_bool "head rank takes > 20%% of the mass" true
    (Zipf.expected_prob z 0 > 0.2);
  let u = Zipf.v ~n:50 ~theta:0.0 in
  check (Alcotest.float 1e-12) "uniform prob" 0.02 (Zipf.expected_prob u 0)

(* {1 Mixes} *)

let test_mix_parsing () =
  let ok s = match Server.mix_of_string s with
    | Ok m -> m
    | Error e -> Alcotest.failf "mix %S rejected: %s" s e
  in
  check (Alcotest.float 0.0) "preset a" 0.5 (ok "a").Server.read;
  check (Alcotest.float 0.0) "preset b" 0.95 (ok "b").Server.read;
  check (Alcotest.float 0.0) "preset c" 1.0 (ok "c").Server.read;
  check (Alcotest.float 0.0) "preset insert" 0.25 (ok "insert").Server.insert;
  let m = ok "read:0.6,update:0.3,insert:0.1" in
  check (Alcotest.float 1e-12) "explicit read" 0.6 m.Server.read;
  check (Alcotest.float 1e-12) "explicit insert" 0.1 m.Server.insert;
  (* Canonical form round-trips. *)
  let rt = ok (Server.mix_to_string m) in
  check_bool "round-trip" true (rt = m);
  let bad s = match Server.mix_of_string s with
    | Ok _ -> Alcotest.failf "mix %S accepted" s
    | Error _ -> ()
  in
  bad "read:0.5,update:0.2,insert:0.2" (* sums to 0.9 *);
  bad "read:1.5,update:-0.5,insert:0" (* negative class *);
  bad "read:0.5,scan:0.5" (* unknown class *);
  bad "frobnicate"

let test_churn_mix () =
  let ok s = match Server.mix_of_string s with
    | Ok m -> m
    | Error e -> Alcotest.failf "mix %S rejected: %s" s e
  in
  let m = ok "churn" in
  check (Alcotest.float 0.0) "churn read" 0.3 m.Server.read;
  check (Alcotest.float 0.0) "churn delete" 0.15 m.Server.delete;
  check_bool "churn preset = mix_churn" true (m = Server.mix_churn);
  (* Explicit four-class form parses and round-trips with delete kept. *)
  let e = ok "read:0.3,update:0.4,insert:0.15,delete:0.15" in
  check_bool "explicit churn" true (e = Server.mix_churn);
  check_bool "round-trip keeps delete" true (ok (Server.mix_to_string e) = e);
  (* Delete-free mixes render exactly as before the delete class
     existed, so pre-churn reports stay byte-identical. *)
  let contains s sub =
    let n = String.length s and k = String.length sub in
    let rec has i = i + k <= n && (String.sub s i k = sub || has (i + 1)) in
    has 0
  in
  check_bool "delete:0 omitted" false
    (contains (Server.mix_to_string (ok "a")) "delete");
  check_bool "delete rendered when set" true
    (contains (Server.mix_to_string e) "delete:0.15");
  match Server.mix_of_string "read:0.3,update:0.4,insert:0.15,delete:0.2" with
  | Ok _ -> Alcotest.fail "over-unity churn mix accepted"
  | Error _ -> ()

let test_validate () =
  let d = Server.default in
  check_bool "default valid" true (Server.validate d = Ok ());
  let bad c = match Server.validate c with
    | Ok () -> Alcotest.fail "invalid config accepted"
    | Error _ -> ()
  in
  bad { d with Server.theta = 1.0 };
  bad { d with Server.tenants = 0 };
  bad { d with Server.shards = d.Server.tenants + 1 };
  bad { d with Server.resident = 0 };
  bad { d with Server.region_size = 1024 };
  bad { d with Server.reprs = [] }

(* {1 Server determinism} *)

(* Small but representative: multiple shards, residency churn, three
   representations spanning all remap-safety classes. *)
let small_config =
  { Server.default with
    Server.tenants = 60;
    ops = 400;
    shards = 2;
    resident = 6;
    seed = 9;
    reprs = Repr.[ Normal; Riv; Fat_cached ] }

let report_string ~jobs c = Json.to_string (Server.report_to_json (Server.run ~jobs c))

let test_churn_run () =
  (* A churn run must actually exercise the delete path — and stay
     deterministic across --jobs like every other mix. *)
  let c = { small_config with Server.mix = Server.mix_churn } in
  let r = Server.run ~jobs:1 c in
  List.iter
    (fun res ->
      let get name =
        Option.value ~default:0 (List.assoc_opt name res.Server.counters)
      in
      let name = Repr.to_string res.Server.repr in
      check_bool (name ^ ": deletes happened") true (get "server.deletes" > 0);
      check_bool (name ^ ": misses bounded") true
        (get "server.delete_misses" <= get "server.deletes"))
    r.Server.results;
  check_bool "churn jobs byte-identical" true
    (report_string ~jobs:1 c = report_string ~jobs:2 c)

let test_jobs_byte_identical () =
  let serial = report_string ~jobs:1 small_config in
  check Alcotest.string "jobs 2 = jobs 1" serial (report_string ~jobs:2 small_config);
  check Alcotest.string "jobs 5 = jobs 1" serial (report_string ~jobs:5 small_config);
  check Alcotest.string "rerun identical" serial (report_string ~jobs:1 small_config)

let test_durability_per_run () =
  (* The discipline belongs to the run, not the process: an eager report
     taken after a snapshot run equals the one taken before it, the
     snapshot run serves from different machines (plain kvstore path,
     freelist heap) and alone records its discipline, and the two runs
     side by side on two domains equal their serial reports. *)
  let snap =
    { small_config with Server.durability = Core.Durability.Snapshot Line }
  in
  let eager_run = Server.run ~jobs:1 small_config in
  let snap_run = Server.run ~jobs:1 snap in
  let render r = Json.to_string (Server.report_to_json r) in
  let eager = render eager_run and snapshot = render snap_run in
  check Alcotest.string "eager unchanged by a snapshot run" eager
    (report_string ~jobs:1 small_config);
  check_bool "snapshot machines serve differently" false
    (eager_run.Server.results = snap_run.Server.results);
  let recorded r =
    Option.bind
      (Json.member "params" (Server.report_to_json r))
      (fun p -> Option.bind (Json.member "durability" p) Json.as_string)
  in
  check Alcotest.(option string) "snapshot recorded" (Some "snapshot")
    (recorded snap_run);
  check Alcotest.(option string) "eager records nothing" None
    (recorded eager_run);
  match
    Nvmpi_parsweep.Pool.map ~jobs:2
      [
        (fun () -> report_string ~jobs:1 small_config);
        (fun () -> report_string ~jobs:1 snap);
      ]
  with
  | [ e; s ] ->
      check Alcotest.string "eager on a domain = serial" eager e;
      check Alcotest.string "snapshot on a domain = serial" snapshot s
  | _ -> Alcotest.fail "Pool.map lost a task"

let test_seed_changes_report () =
  let a = report_string ~jobs:1 small_config in
  let b = report_string ~jobs:1 { small_config with Server.seed = 10 } in
  check_bool "different seed, different report" false (a = b)

let test_reprs_same_stream () =
  (* Every representation must see the identical request stream: the
     workload counters (requests, reads, creates, maps, evictions) agree
     across representations even though cycle counts differ. *)
  let r = Server.run ~jobs:1 small_config in
  let get res name =
    match List.assoc_opt name res.Server.counters with
    | Some v -> v
    | None -> Alcotest.failf "missing counter %s" name
  in
  match r.Server.results with
  | [] -> Alcotest.fail "no results"
  | first :: rest ->
      List.iter
        (fun res ->
          List.iter
            (fun name ->
              check_int
                (Printf.sprintf "%s agrees for %s" name
                   (Repr.to_string res.Server.repr))
                (get first name) (get res name))
            [ "server.requests"; "server.reads"; "server.updates";
              "server.inserts"; "server.tenant_creates"; "server.maps";
              "server.evictions" ])
        rest

let test_counter_relations () =
  let r = Server.run ~jobs:1 small_config in
  List.iter
    (fun res ->
      let get name = Option.value ~default:0 (List.assoc_opt name res.Server.counters) in
      let name = Repr.to_string res.Server.repr in
      check_int (name ^ ": requests = reads + updates + inserts")
        (get "server.requests")
        (get "server.reads" + get "server.updates" + get "server.inserts");
      check_int (name ^ ": requests = hits + misses")
        (get "server.requests")
        (get "server.residency_hits" + get "server.residency_misses");
      check_int (name ^ ": every map eventually unmapped (close_all drains)")
        (get "server.maps") (get "server.unmaps");
      check_bool (name ^ ": maps >= creates") true
        (get "server.maps" >= get "server.tenant_creates");
      check_bool (name ^ ": churn happened") true (get "server.evictions" > 0);
      check_int (name ^ ": requests field mirrors counter")
        res.Server.requests (get "server.requests"))
    r.Server.results

(* {1 Residency} *)

let vaddr_opt =
  Alcotest.testable
    (fun fmt v ->
      Format.fprintf fmt "%s"
        (match v with
        | None -> "None"
        | Some a -> Printf.sprintf "0x%x" (a : Nvmpi_addr.Kinds.Vaddr.t :> int)))
    ( = )

(* Evict a tenant, touch another, come back: the value must survive the
   unmap/remap cycle under every representation. Self-contained
   representations must come back at a different base (that is the churn
   the server measures); pinned ones (normal, swizzle) at the same. *)
let test_evict_then_reaccess () =
  List.iter
    (fun repr ->
      let name = Repr.to_string repr in
      let store = Core.Store.create () in
      let machine = Machine.create ~seed:77 ~store () in
      let res =
        Residency.create ~machine ~repr ~cap:1 ~region_size:(64 * 1024)
          ~buckets:8 ~log_cap:2048 ()
      in
      let kv0, provisioned = Residency.kv res ~tenant:0 in
      check_bool (name ^ ": first touch provisions") true provisioned;
      Nvmpi_apps.Kvstore.put kv0 ~key:3 "persists-across-eviction";
      let base0 = Residency.region_base res ~tenant:0 in
      check_bool (name ^ ": base known while resident") true (base0 <> None);
      (* cap = 1: touching tenant 1 must evict tenant 0. *)
      let _kv1, _ = Residency.kv res ~tenant:1 in
      check_bool (name ^ ": tenant 0 evicted") false
        (Residency.is_resident res ~tenant:0);
      check_bool (name ^ ": tenant 0 still provisioned") true
        (Residency.is_provisioned res ~tenant:0);
      check_int (name ^ ": one resident") 1 (Residency.resident_count res);
      (* Reaccess: remap (evicting tenant 1) and read the value back. *)
      let kv0', provisioned = Residency.kv res ~tenant:0 in
      check_bool (name ^ ": reaccess is not a provision") false provisioned;
      check (Alcotest.option Alcotest.string)
        (name ^ ": value survives eviction + remap")
        (Some "persists-across-eviction")
        (Nvmpi_apps.Kvstore.get kv0' ~key:3);
      let base0' = Residency.region_base res ~tenant:0 in
      if Repr.position_independent repr then
        check_bool (name ^ ": self-contained tenant moved") false
          (base0 = base0')
      else check vaddr_opt (name ^ ": pinned tenant did not move") base0 base0';
      Residency.close_all res;
      check_int (name ^ ": drained") 0 (Residency.resident_count res))
    Repr.all

let test_lru_order () =
  let store = Core.Store.create () in
  let machine = Machine.create ~seed:5 ~store () in
  let res =
    Residency.create ~machine ~repr:Repr.Riv ~cap:2 ~region_size:(64 * 1024)
      ~buckets:8 ~log_cap:2048 ()
  in
  ignore (Residency.kv res ~tenant:0);
  ignore (Residency.kv res ~tenant:1);
  (* Touch 0 so 1 becomes the LRU victim. *)
  ignore (Residency.kv res ~tenant:0);
  ignore (Residency.kv res ~tenant:2);
  check_bool "tenant 1 was the LRU victim" false
    (Residency.is_resident res ~tenant:1);
  check_bool "tenant 0 survived" true (Residency.is_resident res ~tenant:0);
  check_bool "tenant 2 resident" true (Residency.is_resident res ~tenant:2)

(* Every eviction takes the resident tenant touched longest ago. The
   reference is the stamp fold residency made before it kept a recency
   list: each touch stamps its tenant from a strictly rising clock, and
   the victim is the resident entry with the smallest stamp. *)
let prop_lru_victim =
  QCheck2.Test.make ~name:"lru victim is the oldest resident" ~count:60
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(
      pair (int_range 1 3) (list_size (int_range 1 30) (int_range 0 5)))
    (fun (cap, touches) ->
      let machine = Machine.create ~seed:9 ~store:(Core.Store.create ()) () in
      let res =
        Residency.create ~machine ~repr:Repr.Riv ~cap ~region_size:(64 * 1024)
          ~buckets:8 ~log_cap:2048 ()
      in
      let stamps = Hashtbl.create 8 and clock = ref 0 in
      let resident () =
        Hashtbl.fold
          (fun tenant _ acc ->
            if Residency.is_resident res ~tenant then tenant :: acc else acc)
          stamps []
      in
      List.for_all
        (fun tenant ->
          let before = resident () in
          let expected =
            if List.mem tenant before || List.length before < cap then None
            else
              Option.map fst
                (Hashtbl.fold
                   (fun e last acc ->
                     match acc with
                     | _ when not (List.mem e before) -> acc
                     | Some (_, l) when l <= last -> acc
                     | _ -> Some (e, last))
                   stamps None)
          in
          ignore (Residency.kv res ~tenant);
          incr clock;
          Hashtbl.replace stamps tenant !clock;
          let after = resident () in
          let victims = List.filter (fun e -> not (List.mem e after)) before in
          victims = Option.to_list expected
          && List.mem tenant after
          && Residency.resident_count res = List.length after)
        touches)

(* Churn across evictions: each reopen finds a heap its eviction
   closed cleanly, so no heap is ever swept, and every value survives. *)
let test_evictions_close_cleanly () =
  List.iter
    (fun repr ->
      let name = Repr.to_string repr in
      let machine = Machine.create ~seed:41 ~store:(Core.Store.create ()) () in
      let res =
        Residency.create ~machine ~repr ~cap:2 ~region_size:(64 * 1024)
          ~buckets:8 ~log_cap:2048 ()
      in
      let reference = Hashtbl.create 64 in
      let rng = Random.State.make [| 41 |] in
      for i = 1 to 600 do
        let tenant = Random.State.int rng 5 and key = Random.State.int rng 12 in
        let kv, _ = Residency.kv res ~tenant in
        match Random.State.int rng 4 with
        | 0 ->
            check
              Alcotest.(option string)
              (Printf.sprintf "%s: get %d/%d" name tenant key)
              (Hashtbl.find_opt reference (tenant, key))
              (Nvmpi_apps.Kvstore.get kv ~key)
        | 1 ->
            check_bool
              (Printf.sprintf "%s: delete %d/%d" name tenant key)
              (Hashtbl.mem reference (tenant, key))
              (Nvmpi_apps.Kvstore.delete kv ~key);
            Hashtbl.remove reference (tenant, key)
        | _ ->
            let v = String.make (1 + (i * 7 mod 90)) (Char.chr (97 + tenant)) in
            Nvmpi_apps.Kvstore.put kv ~key v;
            Hashtbl.replace reference (tenant, key) v
      done;
      let get = Nvmpi_obs.Metrics.get (Machine.metrics machine) in
      check_bool (name ^ ": evictions happened") true
        (get "server.evictions" > 100);
      check_int (name ^ ": no heap swept") 0 (get "alloc.recovered_blocks");
      for tenant = 0 to 4 do
        let kv, _ = Residency.kv res ~tenant in
        for key = 0 to 11 do
          check
            Alcotest.(option string)
            (Printf.sprintf "%s: final %d/%d" name tenant key)
            (Hashtbl.find_opt reference (tenant, key))
            (Nvmpi_apps.Kvstore.get kv ~key)
        done
      done;
      Residency.close_all res;
      check_int (name ^ ": still none swept") 0 (get "alloc.recovered_blocks"))
    Repr.[ Riv; Off_holder; Fat_cached; Normal ]

let () =
  Alcotest.run "server"
    [
      ( "zipf",
        [
          Alcotest.test_case "validate" `Quick test_zipf_validate;
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "determinism" `Quick test_zipf_determinism;
          Alcotest.test_case "chi-square (theta 0.99)" `Quick
            test_zipf_chi_square;
          Alcotest.test_case "chi-square (uniform)" `Quick
            test_zipf_uniform_chi_square;
          Alcotest.test_case "skew" `Quick test_zipf_skew;
        ] );
      ( "config",
        [
          Alcotest.test_case "mix parsing" `Quick test_mix_parsing;
          Alcotest.test_case "churn mix" `Quick test_churn_mix;
          Alcotest.test_case "validate" `Quick test_validate;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "churn run" `Quick test_churn_run;
          Alcotest.test_case "jobs byte-identical" `Quick
            test_jobs_byte_identical;
          Alcotest.test_case "durability is per run" `Quick
            test_durability_per_run;
          Alcotest.test_case "seed changes report" `Quick
            test_seed_changes_report;
          Alcotest.test_case "reprs share the stream" `Quick
            test_reprs_same_stream;
          Alcotest.test_case "counter relations" `Quick test_counter_relations;
        ] );
      ( "residency",
        [
          Alcotest.test_case "evict then reaccess" `Quick
            test_evict_then_reaccess;
          Alcotest.test_case "lru order" `Quick test_lru_order;
          QCheck_alcotest.to_alcotest prop_lru_victim;
          Alcotest.test_case "evictions close cleanly" `Quick
            test_evictions_close_cleanly;
        ] );
    ]
