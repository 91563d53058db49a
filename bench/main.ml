(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) on the simulated machine and prints measured
   slowdowns next to the paper's reported values.

   Usage:
     dune exec bench/main.exe                  # everything, paper scale
     dune exec bench/main.exe -- fig12 fig13   # selected experiments
     dune exec bench/main.exe -- --scale 0.2   # quick pass
     dune exec bench/main.exe -- --full-wordcount  # 1M/2M-word inputs
     dune exec bench/main.exe -- --json out.json fig12  # + JSON snapshot
     dune exec bench/main.exe -- check BENCH_seed.json  # regression check
     dune exec bench/main.exe -- bechamel      # host-time micro-benchmarks
     dune exec bench/main.exe -- faultsim      # crash-point recovery sweep
     dune exec bench/main.exe -- conform       # conformance smoke run
     dune exec bench/main.exe -- server        # multi-tenant server smoke run

   The last four are "extra" experiments: they live outside the Suite
   (their results are verdicts/host-times/separate JSON kinds, not cycle
   tables), so BENCH JSON snapshots never see them. They register in the
   [extras] table below; adding one more is a single table entry. *)

open Nvmpi_experiments

let usage_text =
  "usage: main.exe [--scale F] [--seed N] [--full-wordcount] [--json FILE] \
   [--jobs N] [--wall] [experiment ...]\n\
  \       main.exe check BASELINE.json [--tolerance F] [--jobs N]\n\
  \       main.exe perf [--ops N]\n\
   experiments: fig12 payload table1 fig13 fig14 regions fig15 breakdown \
   ablations churn durset snapshot bechamel faultsim conform server all\n\
   check re-runs the experiments recorded in BASELINE.json with its own \
   parameters\n\
   and fails on per-cell cycle deviations beyond the tolerance (default \
   0.10);\n\
   --jobs runs independent work items on N domains (identical results, \
   wall-clock only);\n\
   --wall adds a host wall-clock section (with per-representation deref \
   ns) to the JSON snapshot;\n\
   perf prints a host-nanosecond profile of the simulator's access hot \
   path."

let usage () =
  print_endline usage_text;
  exit 1

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "main.exe: %s\n" msg;
      prerr_endline usage_text;
      exit 1)
    fmt

(* Bechamel micro-benchmarks: host-side cost of one simulated pointer
   load under each representation (one Test.make per representation),
   and of one traversal per structure. These measure the simulator
   itself, complementing the cycle-model numbers above — which is why
   they are not part of the Suite and never appear in JSON snapshots:
   host nanoseconds are not deterministic. *)
let bechamel_suite () =
  let open Bechamel in
  let module Machine = Core.Machine in
  let module Region = Core.Region in
  let load_test kind =
    let store = Core.Store.create () in
    let m = Machine.create ~seed:1 ~store () in
    let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
    if kind = Core.Repr.Based then Machine.set_based_region m (Region.rid r);
    let (module P) = Core.Repr.m kind in
    let holder = Region.alloc r P.slot_size in
    let target = Region.alloc r 64 in
    P.store m ~holder target;
    Test.make ~name:(Core.Repr.to_string kind)
      (Staged.stage (fun () -> ignore (P.load m ~holder)))
  in
  let traverse_test structure =
    let store = Core.Store.create () in
    let m = Machine.create ~seed:1 ~store () in
    let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 24)) in
    let node =
      Nvmpi_structures.Node.make m
        ~mode:(Nvmpi_structures.Node.Plain [| r |])
        ~payload:32
    in
    let inst = Instance.create structure Core.Repr.Riv node ~name:"bench" in
    Array.iter (fun k -> inst.Instance.insert k) (Workload.keys ~n:1000 ~seed:3);
    Test.make
      ~name:("traverse-" ^ Instance.structure_name structure)
      (Staged.stage (fun () -> ignore (inst.Instance.traverse ())))
  in
  (* One full dereference — translate the stored pointer, then read 8
     bytes through the resulting absolute address. Unlike pointer-load
     this includes the data access the translation exists to serve, so
     it is the host-side cost of the simulator's per-deref fast path
     (TLB'd page lookup + fused timing access + L1 hit). *)
  let deref_test kind =
    let store = Core.Store.create () in
    let m = Machine.create ~seed:1 ~store () in
    let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
    if kind = Core.Repr.Based then Machine.set_based_region m (Region.rid r);
    let (module P) = Core.Repr.m kind in
    let holder = Region.alloc r P.slot_size in
    let target = Region.alloc r 64 in
    P.store m ~holder target;
    Test.make ~name:(Core.Repr.to_string kind)
      (Staged.stage (fun () ->
           ignore (Machine.load64_fast m (P.load m ~holder))))
  in
  let tests =
    [
      Test.make_grouped ~name:"pointer-load" ~fmt:"%s/%s"
        (List.map load_test Core.Repr.all);
      Test.make_grouped ~name:"single-deref" ~fmt:"%s/%s"
        (List.map deref_test Core.Repr.all);
      Test.make_grouped ~name:"riv-traversal" ~fmt:"%s/%s"
        (List.map traverse_test Instance.structures);
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Bechamel.Measure.run |]
  in
  Printf.printf "\n== Bechamel micro-benchmarks (host ns per simulated op) ==\n";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) analyzed [] in
      List.iter
        (fun (name, ols_result) ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-36s %12.1f ns/run\n" name est
          | _ -> Printf.printf "  %-36s (no estimate)\n" name)
        (List.sort compare rows))
    tests;
  print_newline ()

(* Crash-consistency sweep: like bechamel, not part of the Suite — its
   result is a pass/fail verdict over crash points, not a cycle table,
   so it never enters (or perturbs) BENCH JSON snapshots. *)
let faultsim_suite ~jobs ~seed =
  let open Nvmpi_faultsim in
  let seed = Option.value seed ~default:42 in
  let metrics = Nvmpi_obs.Metrics.create () in
  let report =
    Sweep.run ~jobs ~metrics ~seed (Scenario.defaults () @ Scenario.selftests ())
  in
  Format.printf "%a" Sweep.pp_report report;
  if not (Sweep.ok report) then exit 1

(* Conformance smoke run: a short differential sweep of every pointer
   representation against the reference model (lib/conform). Like
   bechamel and faultsim it is not part of the Suite — its result is a
   divergence count, not a cycle table, so BENCH JSON snapshots never
   see it. The full-size sweep lives in `nvmpi fuzz` and CI. *)
let conform_suite ~jobs ~seed =
  let module Engine = Nvmpi_conform.Engine in
  let seed = Option.value seed ~default:42 in
  let traces = 30 in
  let report = Engine.run ~jobs ~seed ~traces () in
  Printf.printf
    "conform: %d traces (seed %d, %d with remaps), %d divergence(s)\n" traces
    seed report.Engine.traces_with_remap
    (List.length report.Engine.failures);
  List.iter
    (fun f ->
      Printf.printf "  trace %d: %s\n    repro: %s\n" f.Engine.f_trace
        f.Engine.f_detail
        (Nvmpi_conform.Trace.to_string f.Engine.f_shrunk))
    report.Engine.failures;
  if report.Engine.failures <> [] then exit 1

(* Multi-tenant server smoke run: a small zipfian workload with enough
   tenants and a tight residency cap to force map/unmap churn on every
   representation. The full-size knobbed run lives in `nvmpi serve`
   (see docs/SERVER.md). *)
let server_suite ~jobs ~seed =
  let open Nvmpi_server in
  let config =
    { Server.default with
      Server.tenants = 300;
      ops = 1500;
      resident = 24;
      seed = Option.value seed ~default:Server.default.Server.seed }
  in
  Server.print_report (Server.run ~jobs config)

(* The extra experiments: everything runnable from this harness that is
   NOT a Suite cycle-table experiment. Run in table order when selected
   (or under "all"), after the Suite experiments. *)
let extras =
  [
    ("bechamel", fun ~jobs:_ ~seed:_ -> bechamel_suite ());
    ("faultsim", fun ~jobs ~seed -> faultsim_suite ~jobs ~seed);
    ("conform", fun ~jobs ~seed -> conform_suite ~jobs ~seed);
    ("server", fun ~jobs ~seed -> server_suite ~jobs ~seed);
  ]

(* Perf mode ---------------------------------------------------------- *)

(* A host-nanosecond profile of the simulator's access hot path: raw
   loads/stores with no observers (the Memsim fast path alone), the same
   accesses with the timing model attached (the common configuration for
   every experiment), and the full faultsim pipeline with an armed
   tracker. All numbers are host wall-clock — nothing here reads or
   perturbs simulated cycles. *)
let perf_main args =
  let module Memsim = Nvmpi_memsim.Memsim in
  let module Vaddr = Nvmpi_addr.Kinds.Vaddr in
  let module Wall = Nvmpi_parsweep.Wall in
  let ops = ref 1_000_000 in
  let rec parse = function
    | [] -> ()
    | "--ops" :: v :: rest ->
        (match int_of_string_opt v with
        | Some n when n > 0 -> ops := n
        | _ -> fail "--ops needs a positive integer, got %S" v);
        parse rest
    | [ "--ops" ] -> fail "option --ops needs a value"
    | ("--help" | "-h") :: _ -> usage ()
    | flag :: _ -> fail "perf: unknown argument %S" flag
  in
  parse args;
  let n = !ops in
  let measure name f =
    f (n / 100);
    (* warm-up: materialize pages, settle caches *)
    let (), ns = Wall.time (fun () -> f n) in
    Printf.printf "  %-44s %7.1f ns/op\n%!" name (float_of_int ns /. float_of_int n)
  in
  let base = 0x100000 in
  let page = 4096 in
  let fresh_mem () =
    let mem = Memsim.create () in
    Memsim.map mem ~addr:(Vaddr.v base) ~size:(4 * page);
    mem
  in
  (* Sequential loads inside one page: every access hits the one-entry
     page TLB. The 0x7f mask keeps 128 slots of 8 bytes in play. *)
  let seq_addr i = Vaddr.v (base + (i land 0x7f) * 8) in
  (* Alternating pages: every access misses the TLB and pays the
     Hashtbl lookup. *)
  let alt_addr i = Vaddr.v (base + (i land 1) * page) in
  Printf.printf "== simulator hot-path profile (%d ops per row, host ns) ==\n" n;
  let mem = fresh_mem () in
  measure "load64, no observers, same page (TLB hit)" (fun k ->
      for i = 0 to k - 1 do
        ignore (Memsim.load64 mem (seq_addr i))
      done);
  measure "load64, no observers, alternating pages" (fun k ->
      for i = 0 to k - 1 do
        ignore (Memsim.load64 mem (alt_addr i))
      done);
  measure "store64, no observers, same page" (fun k ->
      for i = 0 to k - 1 do
        Memsim.store64 mem (seq_addr i) i
      done);
  let mem_t = fresh_mem () in
  let clock = Nvmpi_cachesim.Clock.create () in
  let timing =
    Nvmpi_cachesim.Timing.create ~clock ~is_nvm:(fun _ -> false) ()
  in
  Nvmpi_cachesim.Timing.attach timing mem_t;
  measure "load64, timing attached, same page (L1 hit)" (fun k ->
      for i = 0 to k - 1 do
        ignore (Memsim.load64 mem_t (seq_addr i))
      done);
  measure "store64, timing attached, same page" (fun k ->
      for i = 0 to k - 1 do
        Memsim.store64 mem_t (seq_addr i) i
      done);
  let module Machine = Core.Machine in
  let module Region = Core.Region in
  let store = Core.Store.create () in
  let m = Machine.create ~seed:1 ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
  let buf = Region.alloc r 1024 in
  let tracker = Nvmpi_faultsim.Tracker.attach m in
  Nvmpi_faultsim.Tracker.arm tracker;
  measure "store64, machine + armed tracker" (fun k ->
      for i = 0 to k - 1 do
        Memsim.store64 m.Machine.mem (Vaddr.add buf ((i land 0x7f) * 8)) i
      done);
  Printf.printf
    "  (tracker rows grow the event log; re-run perf rather than \
     comparing across --ops values)\n"

(* Per-representation single-dereference cost in host nanoseconds,
   measured with plain deterministic loops.
   This backs the ["deref_ns_per_op"] object of the --wall JSON section:
   unlike the bechamel estimates (sampling-based, and implausibly
   inflated on some virtualized hosts), a fixed-count loop over the
   fused path divides two monotonic-clock readings — crude, but honest
   and reproducible enough to track the deref path's regression budget
   per representation. *)
let deref_ns_per_op () =
  let module Machine = Core.Machine in
  let module Region = Core.Region in
  let module Wall = Nvmpi_parsweep.Wall in
  let ops = 2_000_000 in
  List.map
    (fun kind ->
      let store = Core.Store.create () in
      let m = Machine.create ~seed:1 ~store () in
      let r =
        Machine.open_region m (Machine.create_region m ~size:(1 lsl 20))
      in
      if kind = Core.Repr.Based then
        Machine.set_based_region m (Region.rid r);
      let (module P) = Core.Repr.m kind in
      let holder = Region.alloc r P.slot_size in
      let target = Region.alloc r 64 in
      P.store m ~holder target;
      let loop k =
        for _ = 1 to k do
          ignore (Machine.load64_fast m (P.load m ~holder))
        done
      in
      loop (ops / 10);
      let (), ns = Wall.time (fun () -> loop ops) in
      (Core.Repr.to_string kind, float_of_int ns /. float_of_int ops))
    Core.Repr.all

(* Run mode ---------------------------------------------------------- *)

let run_main args =
  let scale = ref 1.0 in
  let seed = ref None in
  let full_wordcount = ref false in
  let json_path = ref None in
  let jobs = ref 1 in
  let wall = ref false in
  let picked = ref [] in
  let rec parse = function
    | [] -> ()
    | "--scale" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f > 0.0 -> scale := f
        | _ -> fail "--scale needs a positive number, got %S" v);
        parse rest
    | "--seed" :: v :: rest ->
        (match int_of_string_opt v with
        | Some s -> seed := Some s
        | None -> fail "--seed needs an integer, got %S" v);
        parse rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some j when j >= 1 -> jobs := j
        | _ -> fail "--jobs needs a positive integer, got %S" v);
        parse rest
    | [ (("--scale" | "--seed" | "--json" | "--jobs") as flag) ] ->
        fail "option %s needs a value" flag
    | "--wall" :: rest ->
        wall := true;
        parse rest
    | "--full-wordcount" :: rest ->
        full_wordcount := true;
        parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
        fail "unknown option %S" flag
    | name :: rest ->
        picked := name :: !picked;
        parse rest
  in
  parse args;
  let picked = if !picked = [] then [ "all" ] else List.rev !picked in
  (* Validate every name before running anything: a typo should not
     surface only after minutes of earlier experiments. *)
  List.iter
    (fun name ->
      if not (Suite.mem name || List.mem_assoc name extras || name = "all")
      then fail "unknown experiment %S" name)
    picked;
  let suite_names =
    List.concat_map
      (fun name ->
        if name = "all" then Suite.names
        else if List.mem_assoc name extras then []
        else [ name ])
      picked
  in
  let wanted_extras =
    let want name = List.exists (fun n -> n = name || n = "all") picked in
    List.filter (fun (name, _) -> want name) extras
  in
  let params =
    {
      Suite.scale = !scale;
      seed = !seed;
      wordcount_full = !full_wordcount;
    }
  in
  let results =
    if !jobs > 1 then begin
      (* Parallel: run everything first, then print in request order. *)
      let results = Suite.run_all ~jobs:!jobs params suite_names in
      List.iter
        (fun r -> List.iter Table.print r.Suite.tables)
        results;
      results
    end
    else
      List.map
        (fun name ->
          let r = Suite.run params name in
          List.iter Table.print r.Suite.tables;
          r)
        suite_names
  in
  List.iter (fun (_, run) -> run ~jobs:!jobs ~seed:!seed) wanted_extras;
  match !json_path with
  | None -> ()
  | Some path ->
      let deref_ns = if !wall then deref_ns_per_op () else [] in
      Nvmpi_obs.Json.to_file path
        (Suite.snapshot_of ~wall:!wall ~deref_ns params results);
      Printf.printf "wrote %s (%d experiment(s), schema_version %d)\n" path
        (List.length results) Suite.schema_version

(* Check mode -------------------------------------------------------- *)

let check_main args =
  let tolerance = ref 0.10 in
  let jobs = ref 1 in
  let baseline_path = ref None in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: v :: rest ->
        (match float_of_string_opt v with
        | Some f when f >= 0.0 -> tolerance := f
        | _ -> fail "--tolerance needs a non-negative number, got %S" v);
        parse rest
    | "--jobs" :: v :: rest ->
        (match int_of_string_opt v with
        | Some j when j >= 1 -> jobs := j
        | _ -> fail "--jobs needs a positive integer, got %S" v);
        parse rest
    | [ (("--tolerance" | "--jobs") as flag) ] ->
        fail "option %s needs a value" flag
    | ("--help" | "-h") :: _ -> usage ()
    | flag :: _ when String.length flag > 0 && flag.[0] = '-' ->
        fail "unknown option %S" flag
    | path :: rest ->
        (match !baseline_path with
        | None -> baseline_path := Some path
        | Some _ -> fail "check takes a single baseline file");
        parse rest
  in
  parse args;
  let path =
    match !baseline_path with
    | Some p -> p
    | None -> fail "check needs a baseline file"
  in
  let baseline =
    match Nvmpi_obs.Json.of_file path with
    | Ok doc -> doc
    | Error msg -> fail "cannot read %s: %s" path msg
  in
  let ( let* ) r f =
    match r with Ok v -> f v | Error msg -> fail "%s: %s" path msg
  in
  let* params = Suite.params_of_json baseline in
  let* names = Suite.names_of_json baseline in
  List.iter
    (fun name ->
      if not (Suite.mem name) then
        fail "%s records unknown experiment %S" path name)
    names;
  Printf.printf
    "check: re-running %s (scale %g, seed %s%s) against %s, tolerance %g%%\n%!"
    (String.concat " " names) params.Suite.scale
    (match params.Suite.seed with Some s -> string_of_int s | None -> "default")
    (if params.Suite.wordcount_full then ", full wordcount" else "")
    path (100.0 *. !tolerance);
  let fresh =
    Suite.snapshot_of params (Suite.run_all ~jobs:!jobs params names)
  in
  let* compared, mismatches =
    Suite.check ~tolerance:!tolerance ~baseline ~fresh ()
  in
  if mismatches = [] then begin
    Printf.printf "check: PASS (%d cells within %g%% of %s)\n" compared
      (100.0 *. !tolerance) path;
    exit 0
  end
  else begin
    List.iter (fun m -> Printf.printf "  %s\n" m) mismatches;
    Printf.printf "check: FAIL (%d of %d cells deviate from %s)\n"
      (List.length mismatches) compared path;
    exit 1
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "check" :: rest -> check_main rest
  | "perf" :: rest -> perf_main rest
  | args -> run_main args
