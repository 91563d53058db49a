module Rid = Nvmpi_addr.Kinds.Rid

type t = {
  tracker : Tracker.t;
  states : (Rid.t * Image.t) list;
  mutable pos : int;
}

let create tracker =
  let line = Tracker.line_size tracker in
  let states =
    List.map
      (fun (rid, base, _, init) -> (rid, Image.create ~base ~line ~init))
      (Tracker.tracked tracker)
  in
  { tracker; states; pos = 0 }

let advance t ~upto =
  if upto < t.pos then invalid_arg "Replay.advance: cursor only moves forward";
  if upto > Tracker.seq t.tracker then invalid_arg "Replay.advance: past log end";
  while t.pos < upto do
    let e = Tracker.event t.tracker t.pos in
    List.iter (fun (_, st) -> Image.apply st e) t.states;
    t.pos <- t.pos + 1
  done

let images t =
  List.map (fun (rid, st) -> (rid, Image.image st)) t.states
