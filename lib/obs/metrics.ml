type t = { cells : (string, int ref) Hashtbl.t }

let create () = { cells = Hashtbl.create 64 }

let counter t name =
  match Hashtbl.find_opt t.cells name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.cells name r;
      r

let incr ?(by = 1) t name =
  let r = counter t name in
  r := !r + by

(* Pre-resolved counter handles for hot paths. A handle is just
   the registry cell, plus a distinguished [unresolved] sentinel so a
   caller can keep a table of lazily resolved handles: start every slot
   at [unresolved], and on first bump replace it with [counter t name].
   The sentinel is compared by physical identity, so resolution happens
   exactly when the counter would first have been registered by
   [incr] — a counter is never registered (and never appears in
   {!snapshot}) before its first increment. *)
module Handle = struct
  type nonrec t = int ref

  let unresolved : t = ref min_int
  let[@inline] resolved c = c != unresolved
  let[@inline] bump (c : t) = Stdlib.incr c
  let[@inline] add (c : t) n = c := !c + n
end

let handle = counter

let get t name =
  match Hashtbl.find_opt t.cells name with Some r -> !r | None -> 0

let reset t = Hashtbl.iter (fun _ r -> r := 0) t.cells

let snapshot t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.cells []
  |> List.sort compare

let diff ~before ~after =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (name, v) -> Hashtbl.replace tbl name (-v)) before;
  List.iter
    (fun (name, v) ->
      let prior = Option.value ~default:0 (Hashtbl.find_opt tbl name) in
      Hashtbl.replace tbl name (prior + v))
    after;
  Hashtbl.fold (fun name v acc -> if v = 0 then acc else (name, v) :: acc) tbl []
  |> List.sort compare

let json_of_counters counters =
  Json.Obj (List.map (fun (name, v) -> (name, Json.Int v)) counters)

let to_json t = json_of_counters (snapshot t)

let counters_of_json = function
  | Json.Obj fields ->
      let rec decode acc = function
        | [] -> Ok (List.rev acc)
        | (name, v) :: rest -> (
            match Json.as_int v with
            | Some n -> decode ((name, n) :: acc) rest
            | None -> Error (Printf.sprintf "counter %S is not an integer" name))
      in
      decode [] fields
  | _ -> Error "expected a JSON object of counters"
