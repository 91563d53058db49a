(* The benchmark's own tests, on small instances of each workload. *)

open Perfbench
module Json = Nvmpi_obs.Json

let pi = Pi_traverse.workload ~sizes:{ Pi_traverse.elems = 40; stripes = 2 } ()

let kv_sizes = { Kv_churn.tenants = 8; resident = 2; keys = 8 }

let kv = Kv_churn.workload ~sizes:kv_sizes ()

let run ?(ops = 300) ?(traced = false) w ~seed =
  Harness.run ~ops w ~seed ~seconds:0.0 ~traced

let metric r name =
  match List.find_opt (fun (n, _, _) -> n = name) r.Harness.metrics with
  | Some (_, v, _) -> v
  | None -> Alcotest.failf "metric %s missing" name

let check_clean (r : Harness.result) =
  Alcotest.(check int) "no failed op" 0 r.Harness.failed;
  Alcotest.(check bool) "cycle identity" true
    (List.assoc "cycle_identity" r.Harness.context = Json.Bool true)

let same_sim what (a : Harness.result) (b : Harness.result) =
  let wa = a.Harness.window and wb = b.Harness.window in
  Alcotest.(check (array int)) (what ^ ": cycles per op") wa.cycles wb.cycles;
  Alcotest.(check (list (pair string int))) (what ^ ": counters") wa.deltas wb.deltas

let deterministic w () =
  let a = run w ~seed:3 and b = run w ~seed:3 in
  check_clean a;
  check_clean b;
  same_sim "untraced" a b;
  List.iter
    (fun m -> Alcotest.(check (float 0.0)) m (metric a m) (metric b m))
    [ "sim_op_cycles.p50"; "sim_op_cycles.p99" ];
  same_sim "traced" (run ~traced:true w ~seed:3) (run ~traced:true w ~seed:3)

(* GC counts are exact per process, not per run within one process (a
   process's earlier runs shift its GC's state), so compare two
   processes, as the benchmark runs. *)
let gc_counts_repeat () =
  let traced_metrics () =
    let ic =
      Unix.open_process_args_in "../main.exe"
        [| "../main.exe"; "--workload"; "kv-churn"; "--seed"; "3"; "--seconds"; "0"; "--trace"; "1" |]
    in
    let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "main.exe failed");
    let last = List.nth lines (List.length lines - 1) in
    match Json.of_string last with
    | Ok doc -> Option.get (Json.member "metrics" doc)
    | Error e -> Alcotest.fail e
  in
  let a = traced_metrics () and b = traced_metrics () in
  List.iter
    (fun m ->
      let v doc = Option.bind (Json.member m doc) (Json.member "value") in
      Alcotest.(check bool) m true (v a = v b && v a <> None))
    [ "gc.alloc_words_per_op"; "gc.major_collections"; "memsim.accesses_per_op";
      "cachesim.cycles.cache"; "palloc.allocs_per_op" ]

let traced_matches_untraced w ~ops () =
  let a = run ~ops w ~seed:5 and b = run ~ops ~traced:true w ~seed:5 in
  check_clean a;
  check_clean b;
  same_sim "traced vs untraced" a b

let seed_changes_inputs () =
  let keys seed =
    let k, _, _ = Pi_traverse.build { Pi_traverse.elems = 40; stripes = 2 } ~seed in
    k
  in
  Alcotest.(check bool) "pi-traverse keys differ" false (keys 1 = keys 2);
  let requests seed =
    let t = Kv_churn.build kv_sizes ~seed in
    List.init 50 (fun _ ->
        let r = Kv_churn.draw t in
        (r.Kv_churn.tenant, r.Kv_churn.key))
  in
  Alcotest.(check bool) "kv-churn request stream differs" false
    (requests 1 = requests 2)

let planted_value_fails () =
  let run_ops t n =
    let inst = Kv_churn.instance t in
    List.init n (fun i -> inst.Harness.op i)
    |> List.filter (fun o -> not o.Harness.ok)
    |> List.length
  in
  let clean = Kv_churn.build kv_sizes ~seed:9 in
  Alcotest.(check int) "clean stream" 0 (run_ops clean 500);
  let planted = Kv_churn.build kv_sizes ~seed:9 in
  Alcotest.(check bool) "entries planted" true (Kv_churn.corrupt_reference planted > 0);
  Alcotest.(check bool) "planted values counted as failures" true
    (run_ops planted 500 > 0)

(* BENCHMARK.json and the harness's catalogue name the same metrics
   with the same units, and a traced run reports every per-layer
   metric. *)
let catalogue () =
  let doc =
    match Json.of_file "../../BENCHMARK.json" with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let listed key =
    Option.get (Option.bind (Json.member key doc) Json.as_list)
    |> List.map (fun m ->
           let s k = Option.get (Option.bind (Json.member k m) Json.as_string) in
           (s "name", s "unit"))
    |> List.sort compare
  in
  let sorted = List.sort compare in
  Alcotest.(check (list (pair string string)))
    "end_to_end" (sorted Spec.end_to_end) (listed "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per_layer" (sorted Spec.per_layer) (listed "per_layer");
  let r = run ~ops:100 ~traced:true kv ~seed:1 in
  Alcotest.(check (list string))
    "traced run reports every per-layer metric"
    (List.map fst Spec.per_layer)
    (List.map (fun (n, _, _) -> n) r.Harness.metrics)

let () =
  Alcotest.run "perfbench"
    [
      ( "determinism",
        [
          Alcotest.test_case "pi-traverse" `Quick (deterministic pi);
          Alcotest.test_case "kv-churn" `Quick (deterministic kv);
          Alcotest.test_case "gc counts across processes" `Slow gc_counts_repeat;
        ] );
      ( "traced",
        [
          Alcotest.test_case "pi-traverse" `Quick (traced_matches_untraced pi ~ops:300);
          Alcotest.test_case "kv-churn" `Quick (traced_matches_untraced kv ~ops:300);
          Alcotest.test_case "crash-sweep" `Slow
            (traced_matches_untraced (Crash_sweep.workload ()) ~ops:40);
        ] );
      ("seeds", [ Alcotest.test_case "second seed" `Quick seed_changes_inputs ]);
      ("checks", [ Alcotest.test_case "planted kv value" `Quick planted_value_fails ]);
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json" `Quick catalogue ]);
    ]
