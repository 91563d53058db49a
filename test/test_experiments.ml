open Nvmpi_experiments
module Repr = Core.Repr

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Workloads *)

let test_keys_distinct_deterministic () =
  let a = Workload.keys ~n:500 ~seed:1 in
  let b = Workload.keys ~n:500 ~seed:1 in
  check_bool "deterministic" true (a = b);
  check "distinct" 500
    (List.length (List.sort_uniq compare (Array.to_list a)));
  Array.iter (fun k -> check_bool "positive" true (k > 0)) a

let test_search_sample_from_keys () =
  let keys = Workload.keys ~n:100 ~seed:2 in
  let sample = Workload.search_sample ~keys ~n:1000 ~seed:3 in
  check "sample size" 1000 (Array.length sample);
  let keyset = Hashtbl.create 100 in
  Array.iter (fun k -> Hashtbl.replace keyset k ()) keys;
  Array.iter
    (fun k -> check_bool "sampled from keys" true (Hashtbl.mem keyset k))
    sample

let test_key_word_total_injective () =
  let seen = Hashtbl.create 100 in
  for k = 1 to 5000 do
    let w = Workload.key_word k in
    check_bool "nonempty" true (String.length w > 0);
    check_bool "a-z" true (String.for_all (fun c -> c >= 'a' && c <= 'z') w);
    if Hashtbl.mem seen w then Alcotest.failf "collision at %d: %s" k w;
    Hashtbl.add seen w k
  done

let test_shuffle_permutes () =
  let a = Array.init 100 Fun.id in
  let b = Workload.shuffle a ~seed:4 in
  check_bool "same multiset" true
    (List.sort compare (Array.to_list a) = List.sort compare (Array.to_list b));
  check_bool "actually shuffled" true (a <> b)

(* Runner *)

let small cfg = { cfg with Runner.elems = 300; traversals = 3 }

let test_run_counts_nodes () =
  let m = Runner.run (small Runner.default) in
  check "list nodes" 300 m.Runner.nodes;
  check_bool "cycles measured" true (m.Runner.measured_cycles > 0);
  check_bool "populate measured" true (m.Runner.populate_cycles > 0)

(* Every structure under every representation: the node count and
   checksum must match the normal pointer's. *)
let test_checksum_invariant_across_reprs () =
  List.iter
    (fun structure ->
      let cfg = small { Runner.default with Runner.structure } in
      let base = Runner.run cfg in
      List.iter
        (fun repr ->
          let m = Runner.run { cfg with Runner.repr = repr } in
          let name =
            Instance.structure_name structure ^ "/" ^ Repr.to_string repr
          in
          check (name ^ " nodes") base.Runner.nodes m.Runner.nodes;
          check (name ^ " checksum") base.Runner.checksum m.Runner.checksum)
        Repr.all)
    (Instance.structures @ Instance.extension_structures)

let test_inapplicable_raises () =
  check_bool "off-holder multi-region" true
    (try
       ignore
         (Runner.run
            (small
               { Runner.default with Runner.repr = Repr.Off_holder; regions = 2 }));
       false
     with Invalid_argument _ -> true);
  check_bool "applicable flags" true
    (Runner.applicable Repr.Riv ~regions:10
    && (not (Runner.applicable Repr.Based ~regions:2))
    && Runner.applicable Repr.Based ~regions:1)

let test_search_workload () =
  let cfg =
    { (small Runner.default) with Runner.traversals = 0; searches = 200 }
  in
  let m = Runner.run cfg in
  check_bool "search cycles measured" true (m.Runner.measured_cycles > 0)

let test_tx_mode_runs () =
  let cfg = { (small Runner.default) with Runner.mode = Runner.Tx } in
  let m = Runner.run cfg in
  check "nodes" 300 m.Runner.nodes

let test_multi_region_runs () =
  let cfg =
    { (small Runner.default) with Runner.regions = 4; repr = Repr.Riv }
  in
  let m = Runner.run cfg in
  check "nodes" 300 m.Runner.nodes

(* The slowdown of [cfg] under [repr] against its normal-pointer
   baseline; [Figures.slowdowns] fails on a checksum mismatch. *)
let slowdown cfg repr =
  match Figures.slowdowns cfg [ repr ] with
  | _, [ (_, Some (m, b)) ] ->
      float_of_int m.Runner.measured_cycles
      /. float_of_int b.Runner.measured_cycles
  | _ -> Alcotest.failf "%s inapplicable" (Repr.to_string repr)

let test_slowdown_sane () =
  check_bool "fat slower than normal" true
    (slowdown (small Runner.default) Repr.Fat > 1.0);
  check_bool "based close to normal" true
    (slowdown (small Runner.default) Repr.Based < 1.3)

let test_slowdown_ordering_all_structures () =
  List.iter
    (fun structure ->
      let cfg = small { Runner.default with Runner.structure } in
      let s = slowdown cfg in
      let offh = s Repr.Off_holder and riv = s Repr.Riv and fat = s Repr.Fat in
      check_bool
        (Instance.structure_name structure ^ ": off-holder <= riv")
        true (offh <= riv +. 0.02);
      check_bool
        (Instance.structure_name structure ^ ": riv < fat")
        true (riv < fat))
    Instance.structures

(* Figures (tiny scale: exercises the harness end to end) *)

let test_tables_render () =
  List.iter
    (fun (t : Table.t) ->
      check_bool (t.Table.title ^ " has rows") true (List.length t.Table.rows > 0);
      let cols = List.length t.Table.header in
      List.iter
        (fun r -> check (t.Table.title ^ " row width") cols (List.length r))
        t.Table.rows;
      (* Rendering must not raise. *)
      let buf = Buffer.create 256 in
      let ppf = Format.formatter_of_buffer buf in
      Table.render ppf t;
      Format.pp_print_flush ppf ();
      check_bool "rendered" true (Buffer.length buf > 0))
    [
      Figures.fig12 ~scale:0.02 ();
      Figures.table1 ~scale:0.02 ();
      Figures.breakdown ~scale:0.02 ();
    ]

let test_fig14_skips_intra_region_methods () =
  let t = Figures.fig14 ~scale:0.02 () in
  (* off-holder and based columns must be "-" in every row. *)
  let header = t.Table.header in
  let idx name =
    let rec go i = function
      | [] -> Alcotest.failf "column %s missing" name
      | h :: _ when h = name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 header
  in
  let off_i = idx "off-holder" and based_i = idx "based" in
  List.iter
    (fun row ->
      Alcotest.(check string) "off-holder n/a" "-" (List.nth row off_i);
      Alcotest.(check string) "based n/a" "-" (List.nth row based_i))
    t.Table.rows

let test_fig15_runs () =
  let t = Figures.fig15 ~scale:0.02 () in
  check "two input sizes" 2 (List.length t.Table.rows)

let test_ablations_render () =
  List.iter
    (fun (t : Table.t) ->
      check_bool (t.Table.title ^ " has rows") true
        (List.length t.Table.rows > 0);
      let cols = List.length t.Table.header in
      List.iter
        (fun r -> check (t.Table.title ^ " row width") cols (List.length r))
        t.Table.rows)
    (Ablations.all ~scale:0.02 ())

let test_cold_mode_costs_more () =
  let base = { Runner.default with Runner.elems = 500; traversals = 1 } in
  let warm = Runner.run base in
  let cold = Runner.run { base with Runner.cold = true } in
  check_bool "cold traversal dearer than warm" true
    (cold.Runner.measured_cycles > warm.Runner.measured_cycles)

let test_extension_structures_run () =
  List.iter
    (fun structure ->
      let cfg =
        { Runner.default with Runner.structure; elems = 200; traversals = 2 }
      in
      let m = Runner.run cfg in
      check_bool
        (Instance.structure_name structure ^ " measured")
        true
        (m.Runner.measured_cycles > 0 && m.Runner.nodes > 0))
    Instance.extension_structures

(* Structure workloads through the instance layer: every representation
   must agree with the normal pointer on the traversal result and the
   search hits, and a rerun on a fresh machine must leave a
   byte-identical counter registry, for all nine representations and
   all seven structures. *)

let structure_outcome structure kind =
  let store = Core.Store.create () in
  let metrics = Nvmpi_obs.Metrics.create () in
  let m = Core.Machine.create ~seed:17 ~metrics ~store () in
  let rid = Core.Machine.create_region m ~size:(1 lsl 22) in
  let r = Core.Machine.open_region m rid in
  if kind = Repr.Based then Core.Machine.set_based_region m rid;
  let node =
    Nvmpi_structures.Node.make m ~mode:(Nvmpi_structures.Node.Plain [| r |])
      ~payload:32
  in
  let inst = Instance.create structure kind node ~name:"eq" in
  let keys = Workload.keys ~n:120 ~seed:5 in
  Array.iter (fun k -> inst.Instance.insert k) keys;
  let n, sum = inst.Instance.traverse () in
  let hits =
    Array.fold_left
      (fun a k -> if inst.Instance.search k then a + 1 else a)
      0 keys
  in
  ( Printf.sprintf "n=%d sum=%d hits=%d" n sum hits,
    Nvmpi_obs.Json.to_string (Nvmpi_obs.Metrics.to_json metrics) )

let test_structure_equivalence () =
  List.iter
    (fun structure ->
      let base, _ = structure_outcome structure Repr.Normal in
      List.iter
        (fun kind ->
          let name =
            Instance.structure_name structure ^ "/" ^ Repr.to_string kind
          in
          let result, counters = structure_outcome structure kind in
          let _, counters' = structure_outcome structure kind in
          Alcotest.(check string) (name ^ " result") base result;
          Alcotest.(check string) (name ^ " counters") counters counters')
        Repr.all)
    (Instance.structures @ Instance.extension_structures)

(* Suite.check *)

module Json = Nvmpi_obs.Json

(* A hand-built snapshot holding what check reads: one fig12 table
   whose cells are (label, cycles) pairs under a single row. *)
let snapshot ?(version = Json.Int 2) ?(name = "fig12") cells =
  let cell (label, cycles) =
    Json.Obj [ ("label", Json.String label); ("cycles", Json.Int cycles) ]
  in
  let table =
    Json.Obj
      [
        ("title", Json.String "t");
        ( "records",
          Json.List
            [
              Json.Obj
                [
                  ("row", Json.String "list");
                  ("cells", Json.List (List.map cell cells));
                ];
            ] );
      ]
  in
  Json.Obj
    [
      ("schema_version", version);
      ( "experiments",
        Json.List
          [
            Json.Obj
              [ ("name", Json.String name); ("tables", Json.List [ table ]) ];
          ] );
    ]

let base = snapshot [ ("riv", 1000); ("fat", 2000); ("zero", 0) ]

let mismatches ?tolerance fresh =
  match Suite.check ?tolerance ~baseline:base ~fresh () with
  | Ok (compared, lines) ->
      check "every baseline cell compared" 3 compared;
      lines
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let expect_one prefix = function
  | [ line ] ->
      if not (String.starts_with ~prefix line) then
        Alcotest.failf "expected a %s line, got %S" prefix line
  | lines -> Alcotest.failf "expected one mismatch, got %d" (List.length lines)

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: expected Error" what
  | Error _ -> ()

let test_check_exact () =
  check "exact match, tolerance 0" 0
    (List.length (mismatches ~tolerance:0.0 base))

let test_check_tolerance () =
  let fresh riv = snapshot [ ("riv", riv); ("fat", 2000); ("zero", 0) ] in
  check "5% inside 10%" 0
    (List.length (mismatches ~tolerance:0.1 (fresh 1050)));
  check "10% exactly is inside" 0
    (List.length (mismatches ~tolerance:0.1 (fresh 1100)));
  expect_one "SLOWER" (mismatches ~tolerance:0.1 (fresh 1200));
  expect_one "FASTER" (mismatches ~tolerance:0.1 (fresh 800));
  expect_one "SLOWER" (mismatches ~tolerance:0.0 (fresh 1001))

let test_check_missing () =
  expect_one "MISSING"
    (mismatches ~tolerance:0.1 (snapshot [ ("riv", 1000); ("zero", 0) ]))

let test_check_zero_baseline () =
  (* No relative deviation exists from zero: any non-zero count is a
     mismatch whatever the tolerance. *)
  let fresh zero = snapshot [ ("riv", 1000); ("fat", 2000); ("zero", zero) ] in
  check "zero stays zero" 0 (List.length (mismatches ~tolerance:0.0 (fresh 0)));
  let lines = mismatches ~tolerance:10.0 (fresh 5) in
  expect_one "SLOWER" lines;
  let line = List.hd lines in
  if String.exists (fun c -> c = '%') line || contains line "inf" then
    Alcotest.failf "a change from zero prints a percentage: %S" line

let test_check_schema_version () =
  List.iter
    (fun (what, version) ->
      let doc = snapshot ~version [ ("riv", 1000) ] in
      expect_error (what ^ " baseline")
        (Suite.check ~baseline:doc ~fresh:base ());
      expect_error (what ^ " fresh") (Suite.check ~baseline:base ~fresh:doc ()))
    [ ("version 3", Json.Int 3); ("string version", Json.String "2") ];
  let v1 = snapshot ~version:(Json.Int 1) [] in
  match Suite.check ~baseline:v1 ~fresh:base () with
  | Ok (0, []) -> ()
  | _ -> Alcotest.fail "a v1 snapshot is readable"

let test_check_negative_tolerance () =
  expect_error "tolerance -0.5"
    (Suite.check ~tolerance:(-0.5) ~baseline:base ~fresh:base ())

let test_names_of_json () =
  (match Suite.names_of_json base with
  | Ok [ "fig12" ] -> ()
  | _ -> Alcotest.fail "names_of_json reads fig12");
  expect_error "unknown experiment"
    (Suite.names_of_json (snapshot ~name:"bogus" [ ("riv", 1000) ]))

let () =
  Alcotest.run "experiments"
    [
      ( "workload",
        [
          Alcotest.test_case "keys" `Quick test_keys_distinct_deterministic;
          Alcotest.test_case "search sample" `Quick test_search_sample_from_keys;
          Alcotest.test_case "key_word injective" `Quick
            test_key_word_total_injective;
          Alcotest.test_case "shuffle" `Quick test_shuffle_permutes;
        ] );
      ( "runner",
        [
          Alcotest.test_case "run counts nodes" `Quick test_run_counts_nodes;
          Alcotest.test_case "checksums invariant" `Slow
            test_checksum_invariant_across_reprs;
          Alcotest.test_case "inapplicable raises" `Quick
            test_inapplicable_raises;
          Alcotest.test_case "search workload" `Quick test_search_workload;
          Alcotest.test_case "tx mode" `Quick test_tx_mode_runs;
          Alcotest.test_case "multi-region" `Quick test_multi_region_runs;
          Alcotest.test_case "slowdown sane" `Slow test_slowdown_sane;
          Alcotest.test_case "cost ordering per structure" `Slow
            test_slowdown_ordering_all_structures;
        ] );
      ( "figures",
        [
          Alcotest.test_case "tables render" `Slow test_tables_render;
          Alcotest.test_case "fig14 skips intra-region" `Slow
            test_fig14_skips_intra_region_methods;
          Alcotest.test_case "fig15 runs" `Slow test_fig15_runs;
          Alcotest.test_case "ablations render" `Slow test_ablations_render;
          Alcotest.test_case "cold mode" `Quick test_cold_mode_costs_more;
          Alcotest.test_case "extension structures run" `Quick
            test_extension_structures_run;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "structure workloads" `Quick
            test_structure_equivalence;
        ] );
      ( "check",
        [
          Alcotest.test_case "exact match" `Quick test_check_exact;
          Alcotest.test_case "tolerance bounds" `Quick test_check_tolerance;
          Alcotest.test_case "missing cell" `Quick test_check_missing;
          Alcotest.test_case "zero-cycle baseline cell" `Quick
            test_check_zero_baseline;
          Alcotest.test_case "unreadable schema_version" `Quick
            test_check_schema_version;
          Alcotest.test_case "negative tolerance rejected" `Quick
            test_check_negative_tolerance;
          Alcotest.test_case "unknown experiment rejected" `Quick
            test_names_of_json;
        ] );
    ]
