(* The run loop shared by every workload: repeated set-up, the timed
   phase, and the result the benchmark prints. *)

module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json
module Tc = Nvmpi_cachesim.Timing_config

(* What a timed op reports. *)
type outcome = {
  cycles : int;  (** simulated cycles the op charged *)
  ok : bool;  (** whether its outputs checked out *)
  cls : int;  (** workload-defined class, for per-class breakdowns *)
  aux : int;  (** workload-defined cycle share, e.g. residency cycles *)
}

(* Everything the timed ops of one run did. The ops are the same on
   every run of one seed, traced or not, so all but [host_ns] are
   exact. *)
type window = {
  ops : int;
  cycles : int array;
  cls : int array;
  aux : int array;
  deltas : (string * int) list;
      (** counter deltas over the timed ops, summed over the workload's
          registries *)
  host_ns : int;
  alloc_words : float;
  major_collections : int;
}

(* One set-up workload, ready for its timed phase. *)
type instance = {
  op : int -> outcome;
      (** runs the instance's timed op [i] (0, 1, ... in order); it must
          not raise *)
  counters : unit -> (string * int) list;
      (** summed snapshot of every counter registry the ops charge *)
  context : unit -> (string * Json.t) list;
      (** input sizes and op counts, read when the run ends *)
  per_layer :
    window -> rows:Trace.row list -> op_ns:(int -> int) -> (string * float) list;
      (** workload-specific per-layer metrics from the traced run's span
          summary; [op_ns i] is the host ns of timed op [i] when it ran
          traced, else -1 *)
}

type workload = {
  name : string;
  ops_per_second : float;
      (** nominal rate: a run of [s] seconds times [s * ops_per_second]
          ops, so the work never depends on how fast the host runs *)
  setups : int;
      (** set-ups per run; [setup_s] is their median. Set-up [k] of a
          run with seed [s] gets seed [s * setups + k], so every
          set-up, and every epoch, has inputs of its own *)
  epochs : int;
      (** the timed ops are split over the last [epochs] set-ups, each
          epoch running on its own fresh instance *)
  block_ops : int;
      (** traced runs alternate traced and untraced blocks of this many
          ops, to measure the tracing overhead *)
  setup : seed:int -> instance;
}

(* At least this many timed ops, so that p99 has ten samples beyond
   it. *)
let min_ops = 1000

let timed_ops w ~seconds =
  max min_ops (int_of_float (Float.round (seconds *. w.ops_per_second)))

(* {1 Small statistics} *)

(* Nearest-rank percentile of a sorted array, and the number of samples
   strictly beyond its rank. *)
let percentile sorted pct =
  let n = Array.length sorted in
  if n = 0 then (0, 0)
  else
    let rank = max 1 (((n * pct) + 99) / 100) in
    (sorted.(rank - 1), n - rank)

let median_float l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fratio a b = if b = 0.0 then 0.0 else a /. b

let merge_counters snaps =
  let tbl = Hashtbl.create 128 in
  List.iter
    (List.iter (fun (k, v) ->
         Hashtbl.replace tbl k
           (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))))
    snaps;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let get l name = Option.value ~default:0 (List.assoc_opt name l)

let rss_peak_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

let gc_words () =
  let s = Gc.quick_stat () in
  (s.minor_words +. s.major_words -. s.promoted_words, s.major_collections)

(* {1 Per-layer metrics every workload shares} *)

let cache_accesses d l =
  d (Printf.sprintf "cache.%s.hits" l) + d (Printf.sprintf "cache.%s.misses" l)

(* The cycle identity of docs/METRICS.md: the cycles charged over the
   deltas, by price class. *)
let cycle_classes (w : window) =
  let d = get w.deltas and cfg = Tc.default in
  let acc = cache_accesses d in
  [
    ("alu", d "timing.alu_cycles");
    ( "cache",
      (acc "l1" * cfg.Tc.l1_hit) + (acc "l2" * cfg.Tc.l2_hit)
      + (acc "l3" * cfg.Tc.l3_hit) );
    ( "dram",
      (d "mem.dram_reads" * cfg.Tc.dram_read)
      + (d "mem.dram_writes" * cfg.Tc.dram_write) );
    ( "nvm",
      (d "mem.nvm_reads" * cfg.Tc.nvm_read)
      + (d "mem.nvm_writes" * cfg.Tc.nvm_write) );
    ("flush", d "timing.flushes" * cfg.Tc.clflush);
    ("fence", d "timing.fences" * cfg.Tc.wbarrier);
  ]

(* The price classes must sum exactly to the cycles the ops reported. *)
let identity_holds w =
  List.fold_left (fun a (_, c) -> a + c) 0 (cycle_classes w)
  = Array.fold_left ( + ) 0 w.cycles

let common_layers (w : window) =
  let d = get w.deltas in
  let per_op x = ratio x w.ops in
  let acc = cache_accesses d in
  let accesses = d "mem.loads" + d "mem.stores" in
  [
    ("memsim.accesses_per_op", per_op accesses);
    ("memsim.host_ns_per_access", ratio w.host_ns accesses);
    ("cachesim.l1_hit_ratio", ratio (d "cache.l1.hits") (acc "l1"));
    ("cachesim.l2_hit_ratio", ratio (d "cache.l2.hits") (acc "l2"));
    ("cachesim.l3_hit_ratio", ratio (d "cache.l3.hits") (acc "l3"));
  ]
  @ List.map (fun (c, v) -> ("cachesim.cycles." ^ c, per_op v)) (cycle_classes w)
  @ [
    ("cachesim.flushes_per_op", per_op (d "timing.flushes"));
    ("cachesim.fences_per_op", per_op (d "timing.fences"));
    ( "core.riv_table_loads_per_op",
      per_op (d "riv.base_table_loads" + d "riv.rid_table_loads") );
    ("core.fat_probes_per_lookup", ratio (d "fat.probe_loads") (d "fat.lookups"));
    ( "core.fat_cache_hit_ratio",
      ratio (d "fat.cache_hits") (d "fat.cache_hits" + d "fat.cache_misses") );
    ("palloc.allocs_per_op", per_op (d "alloc.allocs"));
    ("palloc.frees_per_op", per_op (d "alloc.frees"));
    ("gc.alloc_words_per_op", fratio w.alloc_words (float_of_int w.ops));
    ("gc.major_collections", float_of_int w.major_collections);
  ]

(* [core.<name>.sim_cycles_per_op] and [core.<name>.host_us_per_op]
   over the ops whose class satisfies [mine]: mean simulated cycles over
   all of them, mean host time over the traced ones. *)
let per_class (w : window) ~op_ns ~name mine =
  let cyc = ref 0 and n = ref 0 and ns = ref 0 and traced = ref 0 in
  for i = 0 to w.ops - 1 do
    if mine w.cls.(i) then begin
      cyc := !cyc + w.cycles.(i);
      incr n;
      let d = op_ns i in
      if d >= 0 then begin
        ns := !ns + d;
        incr traced
      end
    end
  done;
  [
    (Printf.sprintf "core.%s.sim_cycles_per_op" name, ratio !cyc !n);
    (Printf.sprintf "core.%s.host_us_per_op" name, ratio !ns !traced /. 1e3);
  ]

(* {1 Spans} *)

let s_setup = Trace.name "phase.setup"
let s_timed = Trace.name "phase.timed"
let s_op = Trace.name "harness.op"

let span_p50_us ?(phase = Trace.Timed) rows span =
  match
    List.find_opt (fun r -> r.Trace.phase = phase && r.Trace.span = span) rows
  with
  | Some r -> r.Trace.p50_ns /. 1e3
  | None -> 0.0

(* {1 A run} *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  context : (string * Json.t) list;
  report : string list;  (** the traced run's per-span table *)
  window : window;
}

let unit_of name =
  match List.assoc_opt name Spec.end_to_end with
  | Some u -> u
  | None -> List.assoc name Spec.per_layer

let run ?ops (w : workload) ~seed ~seconds ~traced =
  let n = match ops with Some n -> n | None -> timed_ops w ~seconds in
  let cycles = Array.make n 0 and cls = Array.make n 0 and aux = Array.make n 0 in
  let op_ns = Array.make n (-1) in
  let failed = ref 0 in
  let setup_ns = ref [] in
  (* Traced runs trace even blocks and leave odd ones untraced, so both
     kinds see the same host speeds; index 1 is traced. *)
  let block_ns = [| 0; 0 |] and block_ops = [| 0; 0 |] in
  let deltas = ref [] and alloc_words = ref 0.0 and majors = ref 0 in
  let timed_ns = ref 0 in
  let next = ref 0 and block = ref 0 in
  let inst = ref None in
  Trace.reset ();
  for k = 0 to w.setups - 1 do
    (* Each set-up starts from a collected heap: the previous instance
       leaves nothing behind. *)
    inst := None;
    Gc.full_major ();
    Trace.enabled := traced;
    Trace.set_phase Trace.Setup;
    let t0 = Trace.now_ns () in
    let i = Trace.span s_setup (fun () -> w.setup ~seed:((seed * w.setups) + k)) in
    setup_ns := (Trace.now_ns () - t0) :: !setup_ns;
    inst := Some i;
    let epoch = k - (w.setups - w.epochs) in
    if epoch >= 0 then begin
      Trace.set_phase Trace.Timed;
      let first = !next in
      let last = first + ((n - first) / (w.epochs - epoch)) in
      let c0 = i.counters () in
      let g0, m0 = gc_words () in
      let t0 = Trace.now_ns () in
      while !next < last do
        let on = traced && !block land 1 = 0 in
        Trace.enabled := on;
        let tb = Trace.now_ns () in
        let sp = if on then Trace.enter s_timed else -1 in
        let b0 = !next in
        let stop = min last (b0 + w.block_ops) in
        while !next < stop do
          let j = !next in
          let span =
            if on then begin
              Trace.set_op j;
              Trace.enter s_op
            end
            else -1
          in
          let o = i.op (j - first) in
          if span >= 0 then begin
            Trace.leave span;
            op_ns.(j) <- Trace.duration span
          end;
          if not o.ok then incr failed;
          cycles.(j) <- o.cycles;
          cls.(j) <- o.cls;
          aux.(j) <- o.aux;
          incr next
        done;
        if sp >= 0 then Trace.leave sp;
        let kind = if on then 1 else 0 in
        block_ns.(kind) <- block_ns.(kind) + (Trace.now_ns () - tb);
        block_ops.(kind) <- block_ops.(kind) + (stop - b0);
        incr block
      done;
      timed_ns := !timed_ns + (Trace.now_ns () - t0);
      Trace.enabled := traced;
      let g1, m1 = gc_words () in
      alloc_words := !alloc_words +. (g1 -. g0);
      majors := !majors + (m1 - m0);
      deltas := merge_counters [ !deltas; Metrics.diff ~before:c0 ~after:(i.counters ()) ]
    end
  done;
  let inst = Option.get !inst in
  let window =
    {
      ops = n;
      cycles;
      cls;
      aux;
      deltas = !deltas;
      host_ns = !timed_ns;
      alloc_words = !alloc_words;
      major_collections = !majors;
    }
  in
  let setup_s = median_float (List.map (fun ns -> float_of_int ns /. 1e9) !setup_ns) in
  let sorted = Array.copy cycles in
  Array.sort compare sorted;
  let p50, _ = percentile sorted 50 in
  let p99, beyond = percentile sorted 99 in
  let host_ops_per_s = float_of_int n /. (float_of_int !timed_ns /. 1e9) in
  let rows = if traced then Trace.rows () else [] in
  let timed_rows = List.filter (fun r -> r.Trace.phase = Trace.Timed) rows in
  let traced_ns =
    List.fold_left
      (fun a r -> if r.Trace.span = "phase.timed" then a + r.Trace.total_ns else a)
      0 timed_rows
  in
  let self_of span =
    match List.find_opt (fun r -> r.Trace.span = span) timed_rows with
    | Some r -> r.Trace.self_ns
    | None -> 0
  in
  (* Traced over untraced ops per host second. *)
  let overhead =
    fratio (ratio block_ops.(1) block_ns.(1)) (ratio block_ops.(0) block_ns.(0))
  in
  let metrics =
    if not traced then
      [
        ("setup_s", setup_s);
        ("host_ops_per_s", host_ops_per_s);
        ("sim_op_cycles.p50", float_of_int p50);
        ("sim_op_cycles.p99", float_of_int p99);
        ("rss_peak_mb", rss_peak_mb ());
      ]
    else begin
      let op_ns i = op_ns.(i) in
      let computed =
        common_layers window
        @ [
            ( "core.machine_create_us",
              span_p50_us ~phase:Trace.Setup rows "core.machine_create" );
            ("trace.overhead", overhead);
            ("trace.unattributed_share", ratio (self_of "phase.timed") traced_ns);
          ]
        @ List.map
            (fun s -> ("share." ^ s, ratio (self_of s) traced_ns))
            Spec.timed_spans
        @ inst.per_layer window ~rows ~op_ns
      in
      List.iter
        (fun (n, _) ->
          if not (List.mem_assoc n Spec.per_layer) then
            failwith ("perfbench: metric missing from the catalogue: " ^ n))
        computed;
      List.map
        (fun (n, _) ->
          (n, Option.value ~default:0.0 (List.assoc_opt n computed)))
        Spec.per_layer
    end
  in
  let report =
    if not traced then []
    else
      Printf.sprintf "%-7s %-24s %9s %11s %11s %11s" "phase" "span" "calls"
        "self_s" "total_s" "p50_us"
      :: List.map
           (fun r ->
             Printf.sprintf "%-7s %-24s %9d %11.4f %11.4f %11.2f"
               (match r.Trace.phase with Trace.Setup -> "setup" | Trace.Timed -> "timed")
               r.Trace.span r.Trace.calls
               (float_of_int r.Trace.self_ns /. 1e9)
               (float_of_int r.Trace.total_ns /. 1e9)
               (r.Trace.p50_ns /. 1e3))
           rows
      @ [
          Printf.sprintf
            "traced timed phase %.4f s, unattributed %.4f s (phase.timed self), \
             trace.overhead %.4f"
            (float_of_int traced_ns /. 1e9)
            (float_of_int (self_of "phase.timed") /. 1e9)
            overhead;
        ]
  in
  {
    correct = !failed = 0;
    attempted = n;
    failed = !failed;
    metrics = List.map (fun (n, v) -> (n, v, unit_of n)) metrics;
    context =
      [
        ("workload", Json.String w.name);
        ("seed", Json.Int seed);
        ("traced", Json.Bool traced);
        ("ocaml", Json.String Sys.ocaml_version);
        ("timed_ops", Json.Int n);
        ("timed_s", Json.Float (float_of_int !timed_ns /. 1e9));
        ("p99_samples_beyond", Json.Int beyond);
        ("setups", Json.Int w.setups);
        ("epochs", Json.Int w.epochs);
        ("cycle_identity", Json.Bool (identity_holds window));
      ]
      @ inst.context ();
    report;
    window;
  }

let result_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (n, v, u) ->
               (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ]))
             r.metrics) );
    ]
