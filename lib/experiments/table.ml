module Json = Nvmpi_obs.Json

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
  records : Json.t list;
}

let cell ?(fields = []) ~label ~cycles counters =
  Json.Obj
    ((("label", Json.String label) :: ("cycles", Json.Int cycles) :: fields)
    @ [ ("counters", Nvmpi_obs.Metrics.json_of_counters counters) ])

let record ~row cells =
  Json.Obj [ ("row", Json.String row); ("cells", Json.List cells) ]

let count name counters = Option.value ~default:0 (List.assoc_opt name counters)

let render ppf t =
  let all = t.header :: t.rows in
  let cols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun m row ->
        match List.nth_opt row c with
        | Some s -> max m (String.length s)
        | None -> m)
      0 all
  in
  let widths = List.init cols width in
  let pad s w = s ^ String.make (w - String.length s) ' ' in
  let print_row row =
    let cells = List.mapi (fun c s -> pad s (List.nth widths c)) row in
    Format.fprintf ppf "  %s@." (String.concat "  " cells)
  in
  Format.fprintf ppf "@.== %s ==@." t.title;
  print_row t.header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row t.rows;
  List.iter (fun n -> Format.fprintf ppf "  note: %s@." n) t.notes

let print t = render Format.std_formatter t

let to_json t =
  Json.Obj
    [
      ("title", Json.String t.title);
      ("header", Json.List (List.map (fun s -> Json.String s) t.header));
      ( "rows",
        Json.List
          (List.map
             (fun row -> Json.List (List.map (fun s -> Json.String s) row))
             t.rows) );
      ("notes", Json.List (List.map (fun s -> Json.String s) t.notes));
      ("records", Json.List t.records);
    ]
