(* nvmpi: command-line front end.

   - [nvmpi bench ...]    regenerate the paper's tables/figures
   - [nvmpi check FILE]   regression-check against a benchmark snapshot
   - [nvmpi run FILE]     compile and run an NVC program against a
                          (optionally file-backed) NVM store
   - [nvmpi crash ...]    sweep crash points with the fault-injection
                          harness and verify recovery invariants
   - [nvmpi fuzz ...]     differential conformance fuzzing against the
                          pure reference model
   - [nvmpi serve ...]    multi-tenant region server under a zipfian
                          YCSB-style workload
   - [nvmpi inspect FILE] list the regions and roots of a store image
   - [nvmpi layout]       print the NV-space layout parameters *)

open Cmdliner

let experiments = Nvmpi_experiments.Suite.names @ [ "all" ]

(* --durability on fuzz and serve, the two commands whose workload
   takes a persistence discipline as input (docs/DURABLE.md,
   docs/SNAPSHOT.md); it reaches every machine the run creates and is
   recorded in the report. *)
let durability =
  let modes =
    Arg.enum
      (List.map
         (fun n -> (n, Option.get (Core.Durability.of_string n)))
         Core.Durability.names)
  in
  Arg.(value & opt modes Core.Durability.Eager
       & info [ "durability" ] ~docv:"MODE"
           ~doc:"Persistence discipline: $(b,eager) (legacy, the \
                 default), $(b,traverse) (link-and-persist \
                 flush-minimized durability for hashset/bstree; \
                 docs/DURABLE.md), $(b,snapshot) (failure-atomic \
                 sync epochs, line-granular WAL) or \
                 $(b,snapshot-page) (the same at page granularity; \
                 docs/SNAPSHOT.md).")

(* bench *)

let bench_cmd =
  let names =
    Arg.(value & pos_all (enum (List.map (fun e -> (e, e)) experiments)) [ "all" ]
         & info [] ~docv:"EXPERIMENT")
  in
  let scale =
    Arg.(value & opt float 1.0
         & info [ "scale" ] ~doc:"Scale factor on workload sizes.")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ]
             ~doc:"Override the workload seed (default: each experiment's \
                   fixed seed).")
  in
  let full =
    Arg.(value & flag
         & info [ "full-wordcount" ]
             ~doc:"Run wordcount at the paper's 1M/2M-word sizes.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Also write a schema-versioned JSON snapshot of the \
                   results (cycle counts, baselines, per-counter \
                   breakdowns; see docs/METRICS.md).")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Run experiments on N domains. Results (and the JSON \
                   snapshot) are identical to a serial run; only \
                   wall-clock changes.")
  in
  let run names scale seed full json jobs =
    let open Nvmpi_experiments in
    let params = { Suite.scale; seed; wordcount_full = full } in
    let names =
      List.concat_map
        (fun n -> if n = "all" then Suite.names else [ n ])
        names
    in
    let results =
      if jobs > 1 then begin
        let results = Suite.run_all ~jobs params names in
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
          names
    in
    match json with
    | None -> ()
    | Some path ->
        Core.Json.to_file path (Suite.snapshot_of params results);
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Regenerate the paper's evaluation tables/figures.")
    Term.(const run $ names $ scale $ seed $ full $ json $ jobs)

(* check *)

let check_cmd =
  let baseline =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"BASELINE.json"
             ~doc:"Snapshot written by 'bench --json'.")
  in
  let tolerance =
    Arg.(value & opt float 0.10
         & info [ "tolerance" ]
             ~doc:"Allowed relative deviation per cycle count.")
  in
  let run path tolerance =
    let open Nvmpi_experiments in
    let ( let* ) r f =
      match r with
      | Ok v -> f v
      | Error msg ->
          Printf.eprintf "%s: %s\n" path msg;
          exit 2
    in
    let* baseline = Core.Json.of_file path in
    let* params = Suite.params_of_json baseline in
    let* names = Suite.names_of_json baseline in
    let fresh = Suite.snapshot_of params (Suite.run_all params names) in
    let* compared, mismatches = Suite.check ~tolerance ~baseline ~fresh () in
    if mismatches = [] then
      Printf.printf "check: PASS (%d cells within %g%% of %s)\n" compared
        (100.0 *. tolerance) path
    else begin
      List.iter (fun m -> Printf.printf "  %s\n" m) mismatches;
      Printf.printf "check: FAIL (%d of %d cells deviate from %s)\n"
        (List.length mismatches) compared path;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Re-run the experiments a benchmark snapshot records and fail \
             on cycle-count regressions beyond the tolerance.")
    Term.(const run $ baseline $ tolerance)

(* run *)

let run_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"FILE.nvc" ~doc:"NVC source file.")
  in
  let store_path =
    Arg.(value & opt (some string) None
         & info [ "store" ]
             ~doc:"NVM store image to load (created if missing) and save \
                   back after the run — regions persist across invocations.")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~doc:"Fix region placement (default: randomized).")
  in
  let entry =
    Arg.(value & opt string "main" & info [ "entry" ] ~doc:"Entry function.")
  in
  let args =
    Arg.(value & opt (list int) [] & info [ "args" ] ~doc:"Integer arguments.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ] ~doc:"Log region open/close events.")
  in
  let run file store_path seed entry args verbose =
    if verbose then begin
      Logs.set_reporter (Logs.format_reporter ());
      Logs.set_level (Some Logs.Debug)
    end;
    let store =
      match store_path with
      | Some p when Sys.file_exists p -> Nvmpi_nvregion.Store.load_file p
      | _ -> Nvmpi_nvregion.Store.create ()
    in
    let machine = Core.Machine.create ?seed ~store () in
    let src = In_channel.with_open_text file In_channel.input_all in
    match Nvmpi_lang.Lang.run_string machine ~entry ~args src with
    | Error msg ->
        prerr_endline msg;
        exit 1
    | Ok { Nvmpi_lang.Lang.Eval.result; output } ->
        print_string output;
        Core.Machine.close_all machine;
        (match store_path with
        | Some p -> Nvmpi_nvregion.Store.save_file store p
        | None -> ());
        (match result with
        | Some v -> Printf.printf "-> %d\n" v
        | None -> ())
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile and run an NVC program on the simulated machine.")
    Term.(const run $ file $ store_path $ seed $ entry $ args $ verbose)

(* crash *)

let crash_cmd =
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ]
             ~doc:"Workload and region-placement seed; recovery machines \
                   derive per-crash-point seeds from it, so a run is fully \
                   reproducible.")
  in
  let exhaustive =
    Arg.(value & flag
         & info [ "exhaustive" ]
             ~doc:"Inject a crash after every recorded event (store, flush, \
                   fence) instead of only after fences.")
  in
  let sample =
    Arg.(value & opt (some int) None
         & info [ "sample" ] ~docv:"N"
             ~doc:"Inject crashes at N seeded random event indices per \
                   scenario (plus the endpoints). Overrides --exhaustive.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the sweep report as JSON (see docs/FAULTSIM.md).")
  in
  let skip_selftest =
    Arg.(value & flag
         & info [ "skip-selftest" ]
             ~doc:"Skip the fence-dropping doubles that prove the harness \
                   catches real durability bugs.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Evaluate each scenario's crash points on N domains. \
                   The report (and its JSON) is identical to a serial \
                   sweep; only wall-clock changes.")
  in
  let wall_json =
    Arg.(value & opt (some string) None
         & info [ "wall-json" ] ~docv:"FILE"
             ~doc:"Write host wall-clock timings (total and per scenario) \
                   as a separate JSON document. Kept apart from --json, \
                   which stays deterministic.")
  in
  let only =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~docv:"SUBSTR"
             ~doc:"Sweep only scenarios whose name contains SUBSTR (e.g. \
                   'palloc' for the allocator oracles). Selftest doubles \
                   are filtered too.")
  in
  let list_names =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"Print the scenario names the sweep would run (after \
                   --only/--skip-selftest filtering), one per line, and \
                   exit without sweeping.")
  in
  let run seed exhaustive sample json skip_selftest jobs wall_json only
      list_names =
    let open Nvmpi_faultsim in
    let mode =
      match sample with
      | Some n -> Sweep.Sampled n
      | None -> if exhaustive then Sweep.Exhaustive else Sweep.After_fences
    in
    let scenarios =
      Scenario.defaults ()
      @ (if skip_selftest then [] else Scenario.selftests ())
    in
    let scenarios =
      match only with
      | None -> scenarios
      | Some substr ->
          let matches s =
            let n = String.length substr and m = String.length s.Scenario.name in
            let rec at i =
              i + n <= m && (String.sub s.Scenario.name i n = substr || at (i + 1))
            in
            at 0
          in
          (match List.filter matches scenarios with
          | [] ->
              Printf.eprintf "nvmpi crash: no scenario matches --only %s\n"
                substr;
              exit 2
          | l -> l)
    in
    if list_names then begin
      List.iter (fun s -> print_endline s.Scenario.name) scenarios;
      exit 0
    end;
    let metrics = Core.Metrics.create () in
    let report = Sweep.run ~jobs ~mode ~metrics ~seed scenarios in
    Format.printf "%a" Sweep.pp_report report;
    (match json with
    | None -> ()
    | Some path ->
        Core.Json.to_file path (Sweep.json_of_report report);
        Printf.printf "wrote %s\n" path);
    (match wall_json with
    | None -> ()
    | Some path ->
        Core.Json.to_file path (Sweep.wall_json_of_report ~jobs report);
        Printf.printf "wrote %s\n" path);
    if not (Sweep.ok report) then exit 1
  in
  Cmd.v
    (Cmd.info "crash"
       ~doc:"Sweep crash points over the durability event log: materialize \
             the durable image at each point, reopen it at fresh segments \
             and verify recovery invariants for every pointer \
             representation.")
    Term.(const run $ seed $ exhaustive $ sample $ json $ skip_selftest
          $ jobs $ wall_json $ only $ list_names)

(* fuzz *)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ]
             ~doc:"Trace-generation seed; every trace (including machine \
                   placement) derives from it, so a run is fully \
                   reproducible.")
  in
  let traces =
    Arg.(value & opt int 200
         & info [ "traces" ] ~docv:"K" ~doc:"Number of random traces.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the conformance report as JSON (deterministic: \
                   byte-identical across runs and across --jobs; see \
                   docs/CONFORM.md).")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Check traces on N domains. The report (and its JSON) is \
                   identical to a serial run; only wall-clock changes.")
  in
  let replay =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Instead of generating traces, replay one failing-trace \
                   s-expression (as printed in a failure report) against \
                   every applicable representation.")
  in
  let run durability seed traces json jobs replay =
    let open Nvmpi_conform in
    match replay with
    | Some path -> (
        let src = In_channel.with_open_text path In_channel.input_all in
        match Trace.of_string (String.trim src) with
        | Error msg ->
            Printf.eprintf "%s: %s\n" path msg;
            exit 2
        | Ok tr ->
            let fails = Engine.check_trace ~durability ~index:(-1) tr in
            if fails = [] then print_endline "replay: PASS (no divergence)"
            else begin
              List.iter
                (fun f ->
                  Printf.printf "replay: FAIL [%s] %s\n"
                    (String.concat ","
                       (List.map Core.Repr.to_string f.Engine.f_reprs))
                    f.Engine.f_detail)
                fails;
              exit 1
            end)
    | None ->
        let metrics = Core.Metrics.create () in
        let report = Engine.run ~jobs ~metrics ~durability ~seed ~traces () in
        Printf.printf
          "conform: %d traces (seed %d, %d with remaps), %d divergence(s)\n"
          report.Engine.traces report.Engine.seed
          report.Engine.traces_with_remap
          (List.length report.Engine.failures);
        List.iter
          (fun f ->
            Printf.printf "  trace %d [%s] %s\n    shrunk to %d op(s): %s\n"
              f.Engine.f_trace
              (String.concat ","
                 (List.map Core.Repr.to_string f.Engine.f_reprs))
              f.Engine.f_detail
              (List.length f.Engine.f_shrunk.Trace.ops)
              (Trace.to_string f.Engine.f_shrunk))
          report.Engine.failures;
        (match json with
        | None -> ()
        | Some path ->
            Core.Json.to_file path (Engine.report_to_json report);
            Printf.printf "wrote %s\n" path);
        if report.Engine.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential conformance fuzzing: run random map/remap/pointer/\
             structure traces simultaneously against the pure reference \
             model and every applicable pointer representation on a real \
             simulated machine, cross-check the position-independent \
             representations pairwise after each remap, and shrink any \
             divergence to a replayable s-expression.")
    Term.(const run $ durability $ seed $ traces $ json $ jobs
          $ replay)

(* serve *)

let serve_cmd =
  let open Nvmpi_server in
  let d = Server.default in
  let tenants =
    Arg.(value & opt int d.Server.tenants
         & info [ "tenants" ] ~docv:"N" ~doc:"Total tenant count.")
  in
  let theta =
    Arg.(value & opt float d.Server.theta
         & info [ "theta" ]
             ~doc:"Zipfian skew for tenant and key popularity; 0 is \
                   uniform, must be < 1.")
  in
  let mix =
    Arg.(value & opt string "b"
         & info [ "mix" ]
             ~doc:"Operation mix: a preset (a = 50/50 read/update, \
                   b = 95/5, c = read-only, insert = 50/25/25, churn = \
                   30/40/15/15 with deletes) or an explicit \
                   read:F,update:F,insert:F[,delete:F] list.")
  in
  let churn =
    Arg.(value & flag
         & info [ "churn" ]
             ~doc:"Shorthand for --mix churn: overwrite- and \
                   delete-heavy traffic with value-size churn, driving \
                   the allocator's free/reuse paths.")
  in
  let ops =
    Arg.(value & opt int d.Server.ops
         & info [ "ops" ] ~docv:"N"
             ~doc:"Requests per representation (split across shards).")
  in
  let seed =
    Arg.(value & opt int d.Server.seed
         & info [ "seed" ]
             ~doc:"Workload seed; every RNG (tenant/key draws, op \
                   classes, machine placement) derives from it.")
  in
  let shards =
    Arg.(value & opt int d.Server.shards
         & info [ "shards" ] ~docv:"S"
             ~doc:"Static tenant shards. A workload parameter, never \
                   derived from --jobs: changing it changes the \
                   workload, changing --jobs never does.")
  in
  let resident =
    Arg.(value & opt int d.Server.resident
         & info [ "resident" ] ~docv:"R"
             ~doc:"LRU residency capacity per shard (max concurrently \
                   mapped tenants).")
  in
  let keys =
    Arg.(value & opt int d.Server.keys_per_tenant
         & info [ "keys" ] ~docv:"K" ~doc:"Base keyspace size per tenant.")
  in
  let value_bytes =
    Arg.(value & opt int d.Server.value_bytes
         & info [ "value-bytes" ] ~docv:"B" ~doc:"Payload size of values.")
  in
  let reprs =
    Arg.(value & opt (some string) None
         & info [ "reprs" ] ~docv:"R1,R2,..."
             ~doc:"Comma-separated representations to drive (default: \
                   all nine).")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the server report as JSON (deterministic: \
                   byte-identical across reruns and across --jobs; see \
                   docs/SERVER.md).")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "jobs" ] ~docv:"N"
             ~doc:"Run the (representation, shard) work items on N \
                   domains. The report (and its JSON) is identical to a \
                   serial run; only wall-clock changes.")
  in
  let run durability tenants theta mix churn ops seed shards resident
      keys value_bytes reprs json jobs =
    let fail msg =
      Printf.eprintf "serve: %s\n" msg;
      exit 2
    in
    let mix = if churn then "churn" else mix in
    let mix =
      match Server.mix_of_string mix with Ok m -> m | Error msg -> fail msg
    in
    let reprs =
      match reprs with
      | None -> d.Server.reprs
      | Some s ->
          List.map
            (fun name ->
              match Core.Repr.of_string (String.trim name) with
              | Some r -> r
              | None -> fail (Printf.sprintf "unknown representation %S" name))
            (String.split_on_char ',' s)
    in
    let config =
      { d with Server.tenants; theta; mix; ops; seed; shards; resident;
        keys_per_tenant = keys; value_bytes; reprs; durability }
    in
    (match Server.validate config with
    | Ok () -> ()
    | Error msg -> fail msg);
    let report = Server.run ~jobs config in
    Server.print_report report;
    match json with
    | None -> ()
    | Some path ->
        Core.Json.to_file path (Server.report_to_json report);
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Host one NVRegion-backed kvstore per tenant behind a \
             deterministic request loop and drive a YCSB-style zipfian \
             workload across every pointer representation, with LRU \
             map/unmap residency churn.")
    Term.(const run $ durability $ tenants $ theta $ mix $ churn
          $ ops $ seed $ shards
          $ resident $ keys $ value_bytes $ reprs $ json $ jobs)

(* inspect *)

let inspect_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"STORE" ~doc:"Store image written by 'run --store'.")
  in
  let run file =
    let store = Nvmpi_nvregion.Store.load_file file in
    let machine = Core.Machine.create ~seed:1 ~store () in
    let ids = Nvmpi_nvregion.Store.ids store in
    Printf.printf "store %s: %d region(s)\n" file (List.length ids);
    List.iter
      (fun rid ->
        let r = Core.Machine.open_region machine rid in
        let module R = Nvmpi_nvregion.Region in
        Printf.printf "  region %d: %d bytes, heap top 0x%x, %d root(s)\n"
          (rid :> int)
          (R.size r) (R.heap_top r)
          (List.length (R.roots r));
        List.iter
          (fun (name, addr) ->
            Printf.printf "    root %-24s offset 0x%x\n" name
              (R.offset_of_addr r addr))
          (R.roots r);
        (* If the region hosts a transactional object store, validate its
           heap and report occupancy. *)
        if List.mem_assoc "__objstore" (R.roots r) then begin
          match Nvmpi_tx.Objstore.attach machine r with
          | os ->
              Printf.printf
                "    object store: %d object(s) alive, %d pending undo \
                 record(s)\n"
                (Nvmpi_tx.Objstore.objects_alive os)
                (Nvmpi_tx.Objstore.log_entries os)
          | exception Failure msg ->
              Printf.printf "    object store: CORRUPT (%s)\n" msg
        end)
      ids
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"List the regions and roots of a store image.")
    Term.(const run $ file)

(* layout *)

let layout_cmd =
  let run () =
    let l = Core.Layout.default in
    Format.printf "layout: %a@." Core.Layout.pp l;
    Format.printf "  NV space starts at 0x%x@." (Core.Layout.nv_start l);
    Format.printf "  segment size: %d MiB@."
      (Core.Layout.segment_size l / 1024 / 1024);
    Format.printf "  usable data segments: %d@." (Core.Layout.usable_segments l);
    Format.printf "  max region id: %d@." (Core.Layout.max_rid l);
    Format.printf "  table virtual footprint: %d MiB@."
      (Core.Layout.table_virtual_bytes l / 1024 / 1024);
    Format.printf "  physical table bytes for 20 open regions: %d@."
      (Core.Layout.physical_overhead_bytes l ~regions:20)
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"Print the NV-space layout parameters.")
    Term.(const run $ const ())

let () =
  let doc = "position-independent pointers on simulated NVM (MICRO'17)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "nvmpi" ~doc)
          [ bench_cmd; check_cmd; run_cmd; crash_cmd; fuzz_cmd; serve_cmd;
            inspect_cmd; layout_cmd ]))
