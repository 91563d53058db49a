(** The differential conformance engine: generates seeded traces, runs
    each against the reference model and every applicable representation
    on a real machine, cross-checks the position-independent
    representations pairwise after each remap, and minimizes any
    divergence to a replayable s-expression.

    Applicability ({!applicable}): traces containing a remap run every
    representation but {!Core.Repr.Normal}, the absolute pointer whose
    slots would dangle by design; remap-free traces run all nine.
    Swizzling runs on both, because its unswizzle and swizzle passes
    bracket every remap.
    Counters ([conform.traces], [conform.ops], [conform.divergences],
    [conform.shrink_steps]) land in the registry passed by the driver —
    engine-side observation only, never the machines under test. *)

module Repr = Core.Repr
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json
module Pool = Nvmpi_parsweep.Pool

let caps_of kind = { Model.cross_region = Repr.cross_region kind }

let applicable tr =
  if Trace.has_remap tr then
    List.filter (fun k -> k <> Repr.Normal) Repr.all
  else Repr.all

(* The pairwise groups: representations in one group share caps, so
   their whole observable streams — snapshots included — must agree
   with each other regardless of what the model says. *)
let pairwise_groups =
  [
    [ Repr.Riv; Repr.Fat; Repr.Fat_cached; Repr.Swizzle; Repr.Packed_fat;
      Repr.Hw_oid ];
    [ Repr.Off_holder; Repr.Based ];
  ]

type failure = {
  f_trace : int;  (** trace index under the engine seed; -1 = replay *)
  f_kind : [ `Model | `Pairwise ];
  f_reprs : Repr.kind list;
  f_detail : string;
  f_shrunk : Trace.t;
}

type report = {
  seed : int;
  durability : Core.Durability.t;
  traces : int;
  failures : failure list;
  repr_traces : (string * int) list;  (** traces executed per repr *)
  traces_with_remap : int;
  counters : (string * int) list;
}

(* First point where the machine's observables diverge from the model's. *)
let compare_to_model (tr : Trace.t) kind (res : Exec.result) =
  match res.Exec.fatal with
  | Some e -> Some (Printf.sprintf "world setup crashed: %s" e)
  | None ->
      let model = Model.run ~caps:(caps_of kind) ~payload:Exec.payload tr in
      let ops = Array.of_list tr.ops in
      let rec scan i =
        if i >= Array.length model then None
        else
          match res.Exec.obs.(i) with
          | Exec.Good o when o = model.(i) -> scan (i + 1)
          | machine_obs ->
              Some
                (Printf.sprintf "op %d %s: model %s, machine %s" i
                   (Sexp.to_string (Trace.sexp_of_op ops.(i)))
                   (Model.obs_to_string model.(i))
                   (Exec.obs_to_string machine_obs))
      in
      scan 0

let diverges tr kind res = compare_to_model tr kind res <> None

(* Pairwise check over one group's results: every executed repr in the
   group must produce identical observables and identical post-remap
   snapshots. Returns the first disagreeing pair. *)
let compare_pairwise results group =
  let in_group =
    List.filter (fun (k, _) -> List.mem k group) results
  in
  let canon (res : Exec.result) =
    String.concat "|"
      (Array.to_list (Array.map Exec.obs_to_string res.Exec.obs)
      @ List.map (fun (i, s) -> Printf.sprintf "@%d:%s" i s) res.Exec.snaps)
  in
  match in_group with
  | [] | [ _ ] -> None
  | (k0, r0) :: rest ->
      let c0 = canon r0 in
      List.find_map
        (fun (k, r) ->
          let c = canon r in
          if String.equal c c0 then None
          else
            Some
              ( [ k0; k ],
                Printf.sprintf "%s and %s disagree: [%s] vs [%s]"
                  (Repr.to_string k0) (Repr.to_string k) c0 c ))
        rest

(** Checks one trace against the oracle and pairwise, every machine
    under [durability] (default [Eager]); failures carry already-shrunk
    traces. Exposed for tests and [--replay]. *)
let check_trace ?metrics ?durability ~index (tr : Trace.t) : failure list =
  (match metrics with
  | Some m -> Metrics.incr m "conform.traces"
  | None -> ());
  let run_exec ?obs_metrics kind tr =
    Exec.run ?obs_metrics ?durability ~kind tr
  in
  let reprs = applicable tr in
  let results =
    List.map (fun k -> (k, run_exec ?obs_metrics:metrics k tr)) reprs
  in
  let model_failures =
    List.filter_map
      (fun (k, res) ->
        match compare_to_model tr k res with
        | None -> None
        | Some detail ->
            let shrunk =
              Shrink.minimize ?metrics
                ~still_fails:(fun cand ->
                  diverges cand k (run_exec ?obs_metrics:metrics k cand))
                tr
            in
            Some
              {
                f_trace = index;
                f_kind = `Model;
                f_reprs = [ k ];
                f_detail = detail;
                f_shrunk = shrunk;
              })
      results
  in
  let pairwise_failures =
    (* Only meaningful when the model agrees with everyone: a model
       divergence already reports the offender more precisely. *)
    if model_failures <> [] then []
    else
      List.filter_map
        (fun group ->
          match compare_pairwise results group with
          | None -> None
          | Some (ks, detail) ->
              let shrunk =
                Shrink.minimize ?metrics
                  ~still_fails:(fun cand ->
                    let rs =
                      List.map (fun k -> (k, run_exec k cand)) (applicable cand)
                    in
                    compare_pairwise rs group <> None)
                  tr
              in
              Some
                {
                  f_trace = index;
                  f_kind = `Pairwise;
                  f_reprs = ks;
                  f_detail = detail;
                  f_shrunk = shrunk;
                })
        pairwise_groups
  in
  let failures = model_failures @ pairwise_failures in
  (match metrics with
  | Some m when failures <> [] ->
      Metrics.incr ~by:(List.length failures) m "conform.divergences"
  | _ -> ());
  failures

let run ?(jobs = 1) ?metrics ?(durability = Core.Durability.Eager) ~seed
    ~traces () : report =
  let indices = List.init traces (fun i -> i) in
  let chunks = Pool.chunks ~jobs indices in
  (* One private registry per chunk, merged in input order afterwards:
     the parsweep determinism contract. *)
  let tasks =
    List.map
      (fun chunk () ->
        let priv = Metrics.create () in
        List.iter
          (fun n -> ignore (Metrics.counter priv n))
          [ "conform.traces"; "conform.ops"; "conform.divergences";
            "conform.shrink_steps" ];
        let out =
          List.map
            (fun i ->
              let tr = Gen.trace ~seed ~index:i () in
              let fails = check_trace ~metrics:priv ~durability ~index:i tr in
              (tr, fails))
            chunk
        in
        (out, Metrics.snapshot priv))
      chunks
  in
  let results = Pool.map ~jobs tasks in
  let per_trace = List.concat_map fst results in
  (match metrics with
  | Some m ->
      List.iter
        (fun (_, snap) ->
          List.iter (fun (n, v) -> Metrics.incr ~by:v m n) snap)
        results
  | None -> ());
  let failures = List.concat_map snd per_trace in
  let repr_traces =
    List.map
      (fun k ->
        ( Repr.to_string k,
          List.length
            (List.filter (fun (tr, _) -> List.mem k (applicable tr)) per_trace)
        ))
      Repr.all
  in
  let traces_with_remap =
    List.length (List.filter (fun (tr, _) -> Trace.has_remap tr) per_trace)
  in
  let counters =
    List.concat_map
      (fun (_, snap) ->
        List.filter (fun (n, _) -> String.length n >= 8
                                   && String.sub n 0 8 = "conform.") snap)
      results
    |> List.fold_left
         (fun acc (n, v) ->
           let cur = try List.assoc n acc with Not_found -> 0 in
           (n, cur + v) :: List.remove_assoc n acc)
         []
    |> List.sort compare
  in
  {
    seed;
    durability;
    traces;
    failures;
    repr_traces;
    traces_with_remap;
    counters;
  }

(** {1 Rendering} *)

let failure_to_json f =
  Json.Obj
    [
      ("trace", Json.Int f.f_trace);
      ( "kind",
        Json.String (match f.f_kind with `Model -> "model" | `Pairwise -> "pairwise")
      );
      ("reprs", Json.List (List.map (fun k -> Json.String (Repr.to_string k)) f.f_reprs));
      ("detail", Json.String f.f_detail);
      ("shrunk_ops", Json.Int (List.length f.f_shrunk.Trace.ops));
      ("repro", Json.String (Trace.to_string f.f_shrunk));
    ]

let report_to_json r =
  Json.Obj
    ([
       ("kind", Json.String "conform");
       ("schema_version", Json.Int 1);
       ("seed", Json.Int r.seed);
     ]
    @ Core.Durability.report_fields r.durability
    @ [
        ("traces", Json.Int r.traces);
        ("traces_with_remap", Json.Int r.traces_with_remap);
        ( "repr_traces",
          Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) r.repr_traces) );
        ("failures", Json.List (List.map failure_to_json r.failures));
        ( "counters",
          Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) r.counters) );
      ])
