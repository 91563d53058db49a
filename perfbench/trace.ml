(* In-memory span recorder for the traced run.

   A span is one call the harness makes into a layer: its name, host
   start and end (monotonic ns), parent span, the op it belongs to and
   the phase it ran in. Spans live in preallocated int arrays and are
   summarised when the run ends; nothing is written while the workload
   runs. With recording off, [span] is one branch and a call. *)

let now_ns = Nvmpi_parsweep.Wall.now_ns

let enabled = ref false

(* Span names are interned to small ints so a span is five int
   stores. *)
let name_ids : (string, int) Hashtbl.t = Hashtbl.create 32
let name_strs = ref [||]

let name s =
  match Hashtbl.find_opt name_ids s with
  | Some i -> i
  | None ->
      let i = Array.length !name_strs in
      Hashtbl.add name_ids s i;
      name_strs := Array.append !name_strs [| s |];
      i

let name_of i = !name_strs.(i)

type phase = Setup | Timed

let initial_cap = 4096

type buf = {
  mutable len : int;
  mutable nm : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable ph : int array;
}

let b =
  {
    len = 0;
    nm = [||];
    t0 = [||];
    t1 = [||];
    parent = [||];
    op = [||];
    ph = [||];
  }

let stack = Array.make 64 (-1)
let depth = ref 0
let cur_op = ref (-1)
let cur_phase = ref 0

let reset () =
  b.len <- 0;
  b.nm <- Array.make initial_cap 0;
  b.t0 <- Array.make initial_cap 0;
  b.t1 <- Array.make initial_cap 0;
  b.parent <- Array.make initial_cap 0;
  b.op <- Array.make initial_cap 0;
  b.ph <- Array.make initial_cap 0;
  depth := 0;
  cur_op := -1;
  cur_phase := 0

let set_op i = cur_op := i

let set_phase p = cur_phase := (match p with Setup -> 0 | Timed -> 1)

let grow () =
  let n = 2 * Array.length b.nm in
  let g a =
    let a' = Array.make n 0 in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.nm <- g b.nm;
  b.t0 <- g b.t0;
  b.t1 <- g b.t1;
  b.parent <- g b.parent;
  b.op <- g b.op;
  b.ph <- g b.ph

let enter nm =
  if b.len = Array.length b.nm then grow ();
  let i = b.len in
  b.len <- i + 1;
  b.nm.(i) <- nm;
  b.parent.(i) <- (if !depth = 0 then -1 else stack.(!depth - 1));
  b.op.(i) <- !cur_op;
  b.ph.(i) <- !cur_phase;
  stack.(!depth) <- i;
  incr depth;
  b.t0.(i) <- now_ns ();
  i

let leave i =
  b.t1.(i) <- now_ns ();
  decr depth

let span nm f =
  if not !enabled then f ()
  else begin
    let i = enter nm in
    match f () with
    | v ->
        leave i;
        v
    | exception e ->
        leave i;
        raise e
  end

(* {1 Summaries} *)

let duration i = b.t1.(i) - b.t0.(i)

(* Host ns of span [i] not covered by its children. *)
let self_times () =
  let self = Array.init b.len duration in
  for i = 0 to b.len - 1 do
    let p = b.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - duration i
  done;
  self

type row = {
  phase : phase;
  span : string;
  calls : int;
  self_ns : int;
  total_ns : int;
  p50_ns : float;
}

let median_int (a : int array) =
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let s = Array.copy a in
    Array.sort compare s;
    if n mod 2 = 1 then float_of_int s.(n / 2)
    else float_of_int (s.((n / 2) - 1) + s.(n / 2)) /. 2.0
  end

let rows () =
  let self = self_times () in
  let groups : (int * int, int list ref * int ref) Hashtbl.t =
    Hashtbl.create 32
  in
  for i = 0 to b.len - 1 do
    let key = (b.ph.(i), b.nm.(i)) in
    let durs, s =
      match Hashtbl.find_opt groups key with
      | Some g -> g
      | None ->
          let g = (ref [], ref 0) in
          Hashtbl.add groups key g;
          g
    in
    durs := duration i :: !durs;
    s := !s + self.(i)
  done;
  Hashtbl.fold
    (fun (ph, nm) (durs, s) acc ->
      let d = Array.of_list !durs in
      {
        phase = (if ph = 0 then Setup else Timed);
        span = name_of nm;
        calls = Array.length d;
        self_ns = !s;
        total_ns = Array.fold_left ( + ) 0 d;
        p50_ns = median_int d;
      }
      :: acc)
    groups []
  |> List.sort (fun a b -> compare (a.phase, -a.self_ns) (b.phase, -b.self_ns))
