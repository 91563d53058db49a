(* perfbench: one workload, one seed, one run. Prints a context line,
   the traced run's span table, then the result as the last line:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}. *)

module Json = Nvmpi_obs.Json

let workloads =
  [
    ("pi-traverse", Perfbench.Pi_traverse.workload ());
    ("kv-churn", Perfbench.Kv_churn.workload ());
    ("crash-sweep", Perfbench.Crash_sweep.workload ());
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (pi-traverse|kv-churn|crash-sweep) --seed N \
     --seconds S --trace (0|1)";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := List.assoc_opt v workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := Option.bind (float_of_string_opt v) (fun s -> if s >= 0.0 then Some s else None);
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
        trace := Some (v = "1");
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some traced ->
      let r = Perfbench.Harness.run w ~seed ~seconds ~traced in
      let commit = Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT") in
      let context =
        ("commit", Json.String commit)
        :: ("nproc", Json.Int (Domain.recommended_domain_count ()))
        :: r.Perfbench.Harness.context
      in
      print_endline ("context " ^ Json.to_string ~compact:true (Json.Obj context));
      List.iter print_endline r.Perfbench.Harness.report;
      print_endline (Json.to_string ~compact:true (Perfbench.Harness.result_json r))
  | _ -> usage ()
