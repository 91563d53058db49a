type granularity = Line | Page
type t = Eager | Traverse | Snapshot of granularity
type fault = Drop_window_flushes | Drop_writeback

let all = [ Eager; Traverse; Snapshot Line; Snapshot Page ]

let to_string = function
  | Eager -> "eager"
  | Traverse -> "traverse"
  | Snapshot Line -> "snapshot"
  | Snapshot Page -> "snapshot-page"

let names = List.map to_string all
let of_string s = List.find_opt (fun d -> to_string d = s) all

let report_fields = function
  | Eager -> []
  | d -> [ ("durability", Nvmpi_obs.Json.String (to_string d)) ]
