type t = { mutable cycles : int }

let create () = { cycles = 0 }

(* Out of line, so that the [tick] every charge of the timing model
   inlines is an add, a compare and a branch. *)
let[@inline never] negative_tick () = invalid_arg "Clock.tick"

let[@inline] tick t n =
  if n < 0 then negative_tick ();
  t.cycles <- t.cycles + n

let cycles t = t.cycles
let reset t = t.cycles <- 0

let delta t f =
  let before = t.cycles in
  let r = f () in
  (r, t.cycles - before)

let seconds_of_cycles ?(ghz = 2.6) c = float_of_int c /. (ghz *. 1e9)
let to_seconds ?ghz t = seconds_of_cycles ?ghz t.cycles
