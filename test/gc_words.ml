(* Words the current domain allocates while [f ()] runs: minor words
   plus words allocated directly in the major heap. [Gc.counters], and
   so [Gc.allocated_bytes], counts the words of the current minor heap at
   an eighth of their size on OCaml 5.1, and a minor collection inside
   the window then adds them back whole, so the minor count comes from
   [Gc.minor_words], which agrees with itself across collections.
   Promoted words count once, as minor words. *)
let allocated f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (words () -. before)
