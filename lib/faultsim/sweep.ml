module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json

type mode = Transitions | Exhaustive

let mode_to_string = function
  | Transitions -> "transitions"
  | Exhaustive -> "exhaustive"

type failure = {
  seq : int;
  detail : string;
  window : (int * Events.t) list;
}

type scenario_result = {
  name : string;
  expect_fail : bool;
  points : int;
  failures : failure list;
  durable_bytes : int;
  volatile_bytes : int;
  wall_ns : int;
}

type report = { seed : int; mode : mode; scenarios : scenario_result list }

let scenario_ok r =
  if r.expect_fail then r.failures <> [] else r.failures = []

let ok report = List.for_all scenario_ok report.scenarios

let crash_points mode (run : Scenario.run) =
  let n = Tracker.seq run.tracker in
  let all = List.init (n + 1) Fun.id in
  match mode with
  | Exhaustive -> all
  | Transitions ->
      (* The durable image changes only at a fence and the expected
         outcome only where [expect] moves, so a point between two
         planned ones can expose nothing new. *)
      List.filter
        (fun p ->
          p = 0 || p = n
          || (match Tracker.event run.tracker (p - 1) with
             | Events.Fence -> true
             | _ -> false)
          || run.expect ~seq:p <> run.expect ~seq:(p - 1))
        all

(* Runs the scenario's workload and plans its points. The workload is
   over once [run] returns; stop recording so recovery machines and the
   verification itself cannot grow the log under the cursor. *)
let record ~metrics ~seed ~mode (sc : Scenario.t) =
  let run = sc.run ~metrics ~seed in
  Tracker.disarm run.tracker;
  (run, crash_points mode run)

(* Evaluate an ascending run of crash points with a private cursor. Pure
   with respect to shared state: the tracker is disarmed (read-only), the
   cursor replays into images it owns, and every recovery machine gets a
   private metrics registry — which is what lets chunks of points run on
   separate domains and still merge byte-identically. *)
let eval_points (run : Scenario.run) ~seed points =
  let cursor = Replay.create run.tracker in
  List.map
    (fun p ->
      Replay.advance cursor ~upto:p;
      let recovery_seed = (seed * 1_000_003) + p in
      let outcome =
        try
          let machine', regions' =
            Recovery.boot ~seed:recovery_seed (Replay.images cursor)
          in
          run.verify ~seq:p machine' regions'
        with e -> Error ("recovery raised " ^ Printexc.to_string e)
      in
      (p, outcome))
    points

(* Fold a scenario's evaluated outcomes (in ascending point order) into
   the shared registry and a result record. Shared-registry counters
   move only here, on the calling domain — identical totals for any
   [jobs]. *)
let merge_scenario ~metrics ~tracker (sc : Scenario.t) ~points ~outcomes
    ~wall_ns =
  let c_points = Metrics.counter metrics "faultsim.crash_points" in
  let c_pass = Metrics.counter metrics "faultsim.schedules.passed" in
  let c_fail = Metrics.counter metrics "faultsim.schedules.failed" in
  let failures =
    List.filter_map
      (fun (p, outcome) ->
        incr c_points;
        match outcome with
        | Ok () ->
            incr c_pass;
            None
        | Error detail ->
            incr c_fail;
            Some
              {
                seq = p;
                detail;
                window = Tracker.event_window tracker ~upto:p ~width:6;
              })
      outcomes
  in
  {
    name = sc.Scenario.name;
    expect_fail = sc.Scenario.expect_fail;
    points = List.length points;
    failures;
    durable_bytes = Tracker.durable_bytes tracker;
    volatile_bytes = Tracker.volatile_bytes tracker;
    wall_ns;
  }

let run_scenario ?(jobs = 1) ~metrics ~seed ~mode (sc : Scenario.t) =
  let t0 = Nvmpi_parsweep.Wall.now_ns () in
  let run, points = record ~metrics ~seed ~mode sc in
  let outcomes =
    if jobs <= 1 then eval_points run ~seed points
    else
      Nvmpi_parsweep.Pool.chunks ~jobs points
      |> List.map (fun chunk () -> eval_points run ~seed chunk)
      |> Nvmpi_parsweep.Pool.map ~jobs
      |> List.concat
  in
  merge_scenario ~metrics ~tracker:run.tracker sc ~points ~outcomes
    ~wall_ns:(Nvmpi_parsweep.Wall.now_ns () - t0)

let rec take_drop n lst =
  if n = 0 then ([], lst)
  else
    match lst with
    | [] -> ([], [])
    | x :: rest ->
        let taken, rest = take_drop (n - 1) rest in
        (x :: taken, rest)

let run ?(jobs = 1) ?(mode = Transitions) ~metrics ~seed scenarios =
  let scenarios =
    if jobs <= 1 then
      List.map (fun sc -> run_scenario ~metrics ~seed ~mode sc) scenarios
    else begin
      (* Workloads feed the shared registry: run them serially, in
         order. Chunk evaluation is where the time goes, so every chunk
         of every scenario is submitted to ONE pool — domains are
         spawned once per sweep, not once per scenario. *)
      let prepared =
        List.map
          (fun sc ->
            let prep, workload_ns =
              Nvmpi_parsweep.Wall.time (fun () ->
                  let run, points = record ~metrics ~seed ~mode sc in
                  (run, points, Nvmpi_parsweep.Pool.chunks ~jobs points))
            in
            (sc, prep, workload_ns))
          scenarios
      in
      let tasks =
        List.concat_map
          (fun (_, (run, _, chunks), _) ->
            List.map
              (fun chunk () ->
                Nvmpi_parsweep.Wall.time (fun () ->
                    eval_points run ~seed chunk))
              chunks)
          prepared
      in
      let evaluated = ref (Nvmpi_parsweep.Pool.map ~jobs tasks) in
      List.map
        (fun (sc, ((run : Scenario.run), points, chunks), workload_ns) ->
          let mine, rest = take_drop (List.length chunks) !evaluated in
          evaluated := rest;
          let outcomes = List.concat_map fst mine in
          (* Under a parallel sweep, a scenario's wall_ns is its serial
             workload time plus the summed (CPU-like) time of its
             chunks, which overlap other scenarios' chunks on the
             pool. *)
          let eval_ns = List.fold_left (fun a (_, ns) -> a + ns) 0 mine in
          merge_scenario ~metrics ~tracker:run.tracker sc ~points ~outcomes
            ~wall_ns:(workload_ns + eval_ns))
        prepared
    end
  in
  let durable =
    List.fold_left (fun a r -> a + r.durable_bytes) 0 scenarios
  in
  let volatile =
    List.fold_left (fun a r -> a + r.volatile_bytes) 0 scenarios
  in
  Metrics.incr ~by:durable metrics "faultsim.bytes.durable";
  Metrics.incr ~by:volatile metrics "faultsim.bytes.volatile";
  { seed; mode; scenarios }

(* {1 Reporting} *)

let json_of_failure f =
  Json.Obj
    [
      ("seq", Json.Int f.seq);
      ("detail", Json.String f.detail);
      ( "window",
        Json.List
          (List.map
             (fun (i, e) ->
               Json.Obj
                 [
                   ("seq", Json.Int i);
                   ("event", Json.String (Events.to_string e));
                 ])
             f.window) );
    ]

let json_of_scenario r =
  Json.Obj
    [
      ("name", Json.String r.name);
      ("expect_fail", Json.Bool r.expect_fail);
      ("ok", Json.Bool (scenario_ok r));
      ("crash_points", Json.Int r.points);
      ("violations", Json.Int (List.length r.failures));
      ("durable_bytes", Json.Int r.durable_bytes);
      ("volatile_bytes", Json.Int r.volatile_bytes);
      ("failures", Json.List (List.map json_of_failure r.failures));
    ]

let json_of_report report =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("kind", Json.String "faultsim");
      ("seed", Json.Int report.seed);
      ("mode", Json.String (mode_to_string report.mode));
      ("ok", Json.Bool (ok report));
      ( "total_crash_points",
        Json.Int
          (List.fold_left (fun a r -> a + r.points) 0 report.scenarios) );
      ("scenarios", Json.List (List.map json_of_scenario report.scenarios));
    ]

(* Host wall-clock lives in its own document: the sweep report above is
   byte-identical across hosts and jobs values, this one never is. *)
let wall_json_of_report ~jobs report =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("kind", Json.String "faultsim-wall");
      ("seed", Json.Int report.seed);
      ("mode", Json.String (mode_to_string report.mode));
      ("jobs", Json.Int jobs);
      ( "total_ns",
        Json.Int
          (List.fold_left (fun a r -> a + r.wall_ns) 0 report.scenarios) );
      ( "scenarios",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.name);
                   ("wall_ns", Json.Int r.wall_ns);
                 ])
             report.scenarios) );
    ]

let pp_failure ppf f =
  Format.fprintf ppf "@[<v 2>at crash point %d: %s" f.seq f.detail;
  List.iter
    (fun (i, e) -> Format.fprintf ppf "@,  [%d] %s" i (Events.to_string e))
    f.window;
  Format.fprintf ppf "@]"

let pp_report ppf report =
  Format.fprintf ppf "faultsim sweep: seed=%d mode=%s@." report.seed
    (mode_to_string report.mode);
  List.iter
    (fun r ->
      let verdict =
        if scenario_ok r then "ok"
        else if r.expect_fail then "FAIL (expected violations, saw none)"
        else "FAIL"
      in
      Format.fprintf ppf "  %-42s %4d points  %3d violations  %s%s@." r.name
        r.points
        (List.length r.failures)
        verdict
        (if r.expect_fail && r.failures <> [] then " (expected)" else "");
      if not (scenario_ok r) then
        List.iter (fun f -> Format.fprintf ppf "    %a@." pp_failure f)
          r.failures)
    report.scenarios;
  let total = List.fold_left (fun a r -> a + r.points) 0 report.scenarios in
  Format.fprintf ppf "  total: %d scenarios, %d crash points — %s@."
    (List.length report.scenarios)
    total
    (if ok report then "all invariants hold" else "INVARIANT VIOLATIONS")
