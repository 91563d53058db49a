(* crash-sweep: the after-fences crash-point verifier over every default
   faultsim scenario and selftest double. A timed op is one crash
   point: [Replay.advance], then [Recovery.boot], then the scenario's
   oracle. Before its first point a scenario's workload is recorded
   under an armed tracker; a round is one pass over every scenario, and
   pass [k] records with seed [seed + k], so passes are distinct.

   Set-up records every scenario once to plan the pass (its crash
   points and families). The recordings are not kept for the timed
   phase: each holds a machine with ~13 MiB of cache-model arrays, and
   keeping all 54 alive peaks near 2 GiB. *)

module Machine = Core.Machine
module Scenario = Nvmpi_faultsim.Scenario
module Tracker = Nvmpi_faultsim.Tracker
module Replay = Nvmpi_faultsim.Replay
module Recovery = Nvmpi_faultsim.Recovery
module Events = Nvmpi_faultsim.Events
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json

let setups = 5
let s_record = Trace.name "faultsim.record"
let s_replay = Trace.name "faultsim.replay"
let s_boot = Trace.name "faultsim.boot"
let s_verify = Trace.name "faultsim.verify"

(* The crash points [Sweep]'s after-fences mode explores: both
   endpoints and the point after every fence. *)
let after_fences tracker =
  let n = Tracker.seq tracker in
  let pts = ref [ 0; n ] in
  for i = 0 to n - 1 do
    match Tracker.event tracker i with
    | Events.Fence -> pts := (i + 1) :: !pts
    | _ -> ()
  done;
  Array.of_list (List.sort_uniq compare !pts)

let record (sc : Scenario.t) ~seed =
  Trace.span s_record (fun () ->
      let run = sc.Scenario.run ~metrics:(Metrics.create ()) ~seed in
      Tracker.disarm run.Scenario.tracker;
      run)

type planned = {
  sc : Scenario.t;
  family : string;
  selftest : bool;
  events : int;
  points : int;
}

(* The scenario being swept. *)
type cursor = {
  run : Scenario.run;
  replay : Replay.t;
  pts : int array;
  mutable next : int;
  mutable caught : bool;
}

type state = {
  seed : int;
  plan : planned array;
  recovery : Metrics.t;  (** registry shared by every recovery machine *)
  mutable pass : int;
  mutable scenario : int;
  mutable cur : cursor option;
}

let families = Array.of_list (List.map fst Spec.families)

let family_index f =
  let rec go i = if families.(i) = f then i else go (i + 1) in
  go 0

let plan ~seed =
  Array.of_list
    (List.map
       (fun (sc : Scenario.t) ->
         let run = record sc ~seed in
         {
           sc;
           family = Spec.family_of_scenario sc.Scenario.name;
           selftest = sc.Scenario.expect_fail;
           events = Tracker.seq run.Scenario.tracker;
           points = Array.length (after_fences run.Scenario.tracker);
         })
       (Scenario.defaults () @ Scenario.selftests ()))

let build ~seed =
  {
    seed;
    plan = plan ~seed;
    recovery = Metrics.create ();
    pass = 0;
    scenario = 0;
    cur = None;
  }

let cursor t =
  match t.cur with
  | Some c -> c
  | None ->
      let p = t.plan.(t.scenario) in
      let run = record p.sc ~seed:(t.seed + t.pass) in
      let c =
        {
          run;
          replay = Replay.create run.Scenario.tracker;
          pts = after_fences run.Scenario.tracker;
          next = 0;
          caught = false;
        }
      in
      t.cur <- Some c;
      c

(* Moves on to the next scenario, and after the last to the next
   pass. *)
let next_scenario t =
  t.cur <- None;
  t.scenario <- t.scenario + 1;
  if t.scenario = Array.length t.plan then begin
    t.scenario <- 0;
    t.pass <- t.pass + 1
  end

(* The next crash point of the scenario [c] sweeps. *)
let point t p c =
  let pt = c.pts.(c.next) in
  c.next <- c.next + 1;
  let seed = t.seed + t.pass in
  let cycles, verdict =
    try
      let images =
        Trace.span s_replay (fun () ->
            Replay.advance c.replay ~upto:pt;
            Replay.images c.replay)
      in
      let machine, regions =
        Trace.span s_boot (fun () ->
            Recovery.boot ~metrics:t.recovery ~seed:((seed * 1_000_003) + pt) images)
      in
      let verdict =
        Trace.span s_verify (fun () ->
            try c.run.Scenario.verify ~seq:pt machine regions
            with e -> Error ("oracle raised " ^ Printexc.to_string e))
      in
      (Machine.cycles machine, verdict)
    with e -> (0, Error ("recovery raised " ^ Printexc.to_string e))
  in
  (* The plan and the pass-0 recording must agree: recording is
     deterministic under one seed. *)
  let plan_ok = t.pass > 0 || Array.length c.pts = p.points in
  let ok =
    if p.selftest then begin
      if Result.is_error verdict then c.caught <- true;
      (* A double must be caught at one point or more of its sweep. *)
      c.next < Array.length c.pts || c.caught
    end
    else Result.is_ok verdict
  in
  (match verdict with
  | Error e when not p.selftest ->
      prerr_endline (Printf.sprintf "crash-sweep: %s at point %d: %s" p.sc.Scenario.name pt e)
  | _ -> ());
  if c.next = Array.length c.pts then next_scenario t;
  { Harness.cycles; ok = ok && plan_ok; cls = family_index p.family; aux = 0 }

let op t _ =
  let p = t.plan.(t.scenario) in
  match cursor t with
  | c -> point t p c
  | exception e ->
      (* A recording that raises fails this op and skips the rest of
         its scenario. *)
      prerr_endline
        (Printf.sprintf "crash-sweep: recording %s raised %s" p.sc.Scenario.name
           (Printexc.to_string e));
      next_scenario t;
      { Harness.cycles = 0; ok = false; cls = family_index p.family; aux = 0 }

let per_layer t (w : Harness.window) ~rows ~op_ns =
  let record_ns =
    match
      List.find_opt
        (fun r -> r.Trace.phase = Trace.Setup && r.Trace.span = "faultsim.record")
        rows
    with
    | Some r -> r.Trace.total_ns
    | None -> 0
  in
  let events = Array.fold_left (fun a p -> a + p.events) 0 t.plan in
  [
    (* Every set-up records the whole plan; the seeds differ, the event
       counts barely. *)
    ( "faultsim.record_us_per_event",
      Harness.ratio record_ns (events * setups) /. 1e3 );
    ("faultsim.events", float_of_int events);
    ("faultsim.replay_us", Harness.span_p50_us rows "faultsim.replay");
    ("faultsim.boot_us", Harness.span_p50_us rows "faultsim.boot");
    ("faultsim.verify_us", Harness.span_p50_us rows "faultsim.verify");
    ( "palloc.frag_bytes",
      float_of_int (Metrics.get t.recovery "alloc.frag_bytes") );
  ]
  @ List.concat_map
      (fun f ->
        let fi = family_index f in
        let points =
          Array.fold_left (fun a p -> if p.family = f then a + p.points else a) 0 t.plan
        in
        let ns = ref 0 and n = ref 0 in
        for i = 0 to w.Harness.ops - 1 do
          if w.Harness.cls.(i) = fi then
            let d = op_ns i in
            if d >= 0 then begin
              ns := !ns + d;
              incr n
            end
        done;
        [
          (Printf.sprintf "faultsim.%s.points" f, float_of_int points);
          (Printf.sprintf "faultsim.%s.us_per_point" f, Harness.ratio !ns !n /. 1e3);
        ])
      (Array.to_list families)

let instance t : Harness.instance =
  {
    Harness.op = op t;
    counters = (fun () -> Metrics.snapshot t.recovery);
    context =
      (fun () ->
      [
        ("scenarios", Json.Int (Array.length t.plan));
        ("points_per_pass", Json.Int (Array.fold_left (fun a p -> a + p.points) 0 t.plan));
        ("passes", Json.Int t.pass);
      ]);
    per_layer = per_layer t;
  }

let workload () =
  {
    Harness.name = "crash-sweep";
    ops_per_second = 135.0;
    setups;
    epochs = 1;
    block_ops = 75;
    setup = (fun ~seed -> instance (build ~seed));
  }
