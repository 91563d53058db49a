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

let test_slowdown_sane () =
  let _, s =
    Runner.slowdown (small { Runner.default with Runner.repr = Repr.Fat })
  in
  check_bool "fat slower than normal" true (s > 1.0);
  let _, s =
    Runner.slowdown (small { Runner.default with Runner.repr = Repr.Based })
  in
  check_bool "based close to normal" true (s < 1.3)

let test_slowdown_ordering_all_structures () =
  List.iter
    (fun structure ->
      let cfg = small { Runner.default with Runner.structure } in
      let s repr = snd (Runner.slowdown { cfg with Runner.repr = repr }) in
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
    ]
