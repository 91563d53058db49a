let now_ns () = Int64.to_int (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)
