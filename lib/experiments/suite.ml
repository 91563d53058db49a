module Json = Nvmpi_obs.Json

let schema_version = 2

(* v2 differs from v1 only by an optional host wall-clock section that
   the cycle check never reads, so both versions stay checkable. *)
let readable_versions = [ 1; 2 ]

type params = { scale : float; seed : int option; wordcount_full : bool }

let experiments =
  [
    ( "fig12",
      fun p -> [ Figures.fig12 ~scale:p.scale ?seed:p.seed () ] );
    ( "payload",
      fun p -> [ Figures.payload_sweep ~scale:p.scale ?seed:p.seed () ] );
    ( "table1",
      fun p -> [ Figures.table1 ~scale:p.scale ?seed:p.seed () ] );
    ( "fig13",
      fun p -> [ Figures.fig13 ~scale:p.scale ?seed:p.seed () ] );
    ( "fig14",
      fun p -> [ Figures.fig14 ~scale:p.scale ?seed:p.seed () ] );
    ( "regions",
      fun p -> [ Figures.regions_sweep ~scale:p.scale ?seed:p.seed () ] );
    ( "fig15",
      fun p ->
        [ Figures.fig15 ~scale:p.scale ?seed:p.seed ~full:p.wordcount_full () ]
    );
    ( "breakdown",
      fun p -> [ Figures.breakdown ~scale:p.scale ?seed:p.seed () ] );
    ( "ablations",
      fun p -> Ablations.all ~scale:p.scale ?seed:p.seed () );
    ( "churn",
      fun p -> [ Churn.table ~scale:p.scale ?seed:p.seed () ] );
    ( "durset",
      fun p -> [ Durset.table ~scale:p.scale ?seed:p.seed () ] );
    ( "snapshot",
      fun p -> [ Snapexp.table ~scale:p.scale ?seed:p.seed () ] );
  ]

let names = List.map fst experiments
let mem name = List.mem_assoc name experiments

type result = { name : string; tables : Table.t list }

let run p name =
  match List.assoc_opt name experiments with
  | Some f -> { name; tables = f p }
  | None -> invalid_arg (Printf.sprintf "Suite.run: unknown experiment %S" name)

(* Experiments build private machines and metrics registries, so they can
   run on separate domains; results come back in request order either way.
   The one value they share, the trie vocabulary, is built before the
   domains start; a serial run builds it only if a trie runs. *)
let run_all ?(jobs = 1) p names =
  if jobs > 1 then Instance.force_trie_vocab ();
  Nvmpi_parsweep.Pool.map ~jobs (List.map (fun name () -> run p name) names)

(* Snapshot (de)serialization -------------------------------------- *)

let params_to_json p =
  Json.Obj
    [
      ("scale", Json.Float p.scale);
      ("seed", (match p.seed with Some s -> Json.Int s | None -> Json.Null));
      ("wordcount_full", Json.Bool p.wordcount_full);
    ]

let snapshot_of p results =
  Json.Obj
    [
      ("schema_version", Json.Int schema_version);
      ("params", params_to_json p);
      ( "experiments",
        Json.List
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("name", Json.String r.name);
                   ("tables", Json.List (List.map Table.to_json r.tables));
                 ])
             results) );
    ]

let ( let* ) = Result.bind

let field name doc =
  match Json.member name doc with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "snapshot: missing field %S" name)

let params_of_json doc =
  let* params = field "params" doc in
  let* scale =
    let* v = field "scale" params in
    Option.to_result ~none:"snapshot: params.scale is not a number"
      (Json.as_float v)
  in
  let* seed =
    match Json.member "seed" params with
    | None | Some Json.Null -> Ok None
    | Some v ->
        Option.to_result ~none:"snapshot: params.seed is not an integer"
          (Option.map Option.some (Json.as_int v))
  in
  let* wordcount_full =
    match Json.member "wordcount_full" params with
    | None -> Ok false
    | Some v ->
        Option.to_result ~none:"snapshot: params.wordcount_full is not a bool"
          (Json.as_bool v)
  in
  Ok { scale; seed; wordcount_full }

let check_version doc =
  let* v = field "schema_version" doc in
  match Json.as_int v with
  | Some v when List.mem v readable_versions -> Ok ()
  | Some v ->
      Error
        (Printf.sprintf "snapshot: schema_version %d, this binary reads %s" v
           (String.concat ", "
              (List.map string_of_int readable_versions)))
  | None -> Error "snapshot: schema_version is not an integer"

let names_of_json doc =
  let* exps = field "experiments" doc in
  match Json.as_list exps with
  | None -> Error "snapshot: experiments is not a list"
  | Some exps ->
      let names =
        List.filter_map
          (fun e ->
            Option.bind (Json.member "name" e) Json.as_string)
          exps
      in
      if List.length names <> List.length exps then
        Error "snapshot: an experiment entry has no name"
      else
        match List.find_opt (fun n -> not (mem n)) names with
        | Some n -> Error (Printf.sprintf "snapshot: unknown experiment %S" n)
        | None -> Ok names

(* Regression check -------------------------------------------------- *)

(* Every record cell carrying a "cycles" number, keyed by
   experiment / table title / record row / cell label. *)
let index_cells doc =
  let* () = check_version doc in
  let* exps = field "experiments" doc in
  let* exps =
    Option.to_result ~none:"snapshot: experiments is not a list"
      (Json.as_list exps)
  in
  let cells = ref [] in
  List.iter
    (fun e ->
      let ename =
        Option.value ~default:"?"
          (Option.bind (Json.member "name" e) Json.as_string)
      in
      let tables =
        Option.value ~default:[]
          (Option.bind (Json.member "tables" e) Json.as_list)
      in
      List.iter
        (fun t ->
          let title =
            Option.value ~default:"?"
              (Option.bind (Json.member "title" t) Json.as_string)
          in
          let records =
            Option.value ~default:[]
              (Option.bind (Json.member "records" t) Json.as_list)
          in
          List.iter
            (fun r ->
              let row =
                Option.value ~default:"?"
                  (Option.bind (Json.member "row" r) Json.as_string)
              in
              let rcells =
                Option.value ~default:[]
                  (Option.bind (Json.member "cells" r) Json.as_list)
              in
              List.iter
                (fun c ->
                  match
                    ( Option.bind (Json.member "label" c) Json.as_string,
                      Option.bind (Json.member "cycles" c) Json.as_int )
                  with
                  | Some label, Some cycles ->
                      let key =
                        Printf.sprintf "%s / %s / %s / %s" ename title row
                          label
                      in
                      cells := (key, cycles) :: !cells
                  | _ -> ())
                rcells)
            records)
        tables)
    exps;
  Ok (List.rev !cells)

type mismatch = { key : string; baseline : int; fresh : int option }

let pp_mismatch m =
  match m.fresh with
  | None ->
      Printf.sprintf "MISSING  %s: in baseline (%d cycles) but not in this run"
        m.key m.baseline
  | Some fresh ->
      (* A change from zero has no relative size. *)
      let pct =
        if m.baseline = 0 then ""
        else
          Printf.sprintf " (%+.1f%%)"
            (100.0
            *. (float_of_int fresh -. float_of_int m.baseline)
            /. float_of_int m.baseline)
      in
      Printf.sprintf "%s %s: %d -> %d cycles%s"
        (if fresh > m.baseline then "SLOWER  " else "FASTER  ")
        m.key m.baseline fresh pct

let check ?(tolerance = 0.10) ~baseline ~fresh () =
  let* () =
    if tolerance >= 0.0 then Ok ()
    else
      Error
        (Printf.sprintf "tolerance must be a non-negative number, got %g"
           tolerance)
  in
  let* base_cells = index_cells baseline in
  let* fresh_cells = index_cells fresh in
  let tbl = Hashtbl.create 256 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) fresh_cells;
  let mismatches =
    List.filter_map
      (fun (key, baseline) ->
        match Hashtbl.find_opt tbl key with
        | None -> Some { key; baseline; fresh = None }
        | Some fresh ->
            if baseline = 0 then
              if fresh = 0 then None else Some { key; baseline; fresh = Some fresh }
            else
              let dev =
                Float.abs (float_of_int fresh -. float_of_int baseline)
                /. float_of_int baseline
              in
              if dev > tolerance then Some { key; baseline; fresh = Some fresh }
              else None)
      base_cells
  in
  Ok (List.length base_cells, List.map pp_mismatch mismatches)
