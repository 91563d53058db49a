module Clock = Core.Clock
module Cache_level = Core.Cache_level
module Timing = Core.Timing
module Timing_config = Core.Timing_config
module Memsim = Core.Memsim
module Metrics = Core.Metrics
module Vaddr = Core.Kinds.Vaddr

(* Tests bless literal addresses at the Figure 8 trust boundary. *)
let va = Vaddr.v

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Clock *)

let test_clock () =
  let c = Clock.create () in
  check "zero" 0 (Clock.cycles c);
  Clock.tick c 5;
  Clock.tick c 7;
  check "accumulates" 12 (Clock.cycles c);
  let (), d = Clock.delta c (fun () -> Clock.tick c 100) in
  check "delta" 100 d;
  Clock.reset c;
  check "reset" 0 (Clock.cycles c);
  Alcotest.check_raises "negative tick" (Invalid_argument "Clock.tick")
    (fun () -> Clock.tick c (-1))

let test_clock_seconds () =
  let c = Clock.create () in
  Clock.tick c 2_600_000_000;
  Alcotest.(check (float 1e-9)) "1 second at 2.6GHz" 1.0 (Clock.to_seconds c)

(* Cache level *)

(* [Cache_level.access] returns an unboxed int: [Cache_level.hit],
   [Cache_level.miss_clean], or the line-aligned address (>= 0) of the
   dirty victim written back. *)
let is_hit r = r = Cache_level.hit
let is_miss r = r <> Cache_level.hit

let test_cache_hit_miss () =
  let c = Cache_level.create ~size_bytes:1024 ~ways:2 ~line_bits:6 in
  check "sets" 8 (Cache_level.sets c);
  check_bool "cold access must miss" true
    (is_miss (Cache_level.access c ~addr:0x100 ~write:false));
  check_bool "second access must hit" true
    (is_hit (Cache_level.access c ~addr:0x100 ~write:false));
  (* Same line, different byte. *)
  check_bool "same-line access must hit" true
    (is_hit (Cache_level.access c ~addr:0x13F ~write:false))

let test_cache_lru_eviction () =
  let c = Cache_level.create ~size_bytes:1024 ~ways:2 ~line_bits:6 in
  (* Three lines mapping to the same set (stride = sets*line = 512). *)
  let a0 = 0 and a1 = 512 and a2 = 1024 in
  ignore (Cache_level.access c ~addr:a0 ~write:true);
  ignore (Cache_level.access c ~addr:a1 ~write:false);
  (* Touch a0 so a1 is LRU. *)
  ignore (Cache_level.access c ~addr:a0 ~write:false);
  check "a2 must miss; evicted line a1 was clean" Cache_level.miss_clean
    (Cache_level.access c ~addr:a2 ~write:false);
  (* a0 must still be resident, a1 evicted. *)
  check_bool "a0 was evicted against LRU" true
    (is_hit (Cache_level.access c ~addr:a0 ~write:false));
  check_bool "a1 must have been evicted" true
    (is_miss (Cache_level.access c ~addr:a1 ~write:false))

let test_cache_dirty_eviction () =
  let c = Cache_level.create ~size_bytes:128 ~ways:1 ~line_bits:6 in
  (* Direct-mapped, 2 sets: 0 and 128 collide. *)
  ignore (Cache_level.access c ~addr:0 ~write:true);
  check "dirty line 0 must be written back" 0
    (Cache_level.access c ~addr:128 ~write:false);
  (* Flushing a clean line reports no write-back. *)
  ignore (Cache_level.access c ~addr:64 ~write:false);
  check_bool "clean flush" false (Cache_level.flush_line c ~addr:64);
  ignore (Cache_level.access c ~addr:64 ~write:true);
  check_bool "dirty flush" true (Cache_level.flush_line c ~addr:64)

let test_cache_invalidate () =
  let c = Cache_level.create ~size_bytes:1024 ~ways:2 ~line_bits:6 in
  ignore (Cache_level.access c ~addr:0 ~write:false);
  check_bool "resident line hits" true
    (is_hit (Cache_level.access c ~addr:0 ~write:false));
  Cache_level.invalidate_all c;
  check_bool "hit after invalidate_all" true
    (is_miss (Cache_level.access c ~addr:0 ~write:false))

(* Timing under memsim *)

let layout = Core.Layout.default

let machine_parts ?metrics () =
  let clock = Clock.create () in
  let timing =
    Timing.create ?metrics ~clock ~is_nvm:(Core.Layout.in_nv_space layout) ()
  in
  let mem = Memsim.create ~timing () in
  (mem, clock, timing)

let cfg = Timing_config.default

let test_line_bits_floor () =
  (* A line shorter than 8 bytes would undercharge typed accesses. *)
  let make line_bits =
    Timing.create
      ~cfg:{ cfg with Timing_config.line_bits }
      ~clock:(Clock.create ()) ~is_nvm:(fun _ -> false) ()
  in
  Alcotest.check_raises "line_bits 2"
    (Invalid_argument
       "Timing.create: line_bits < 3 (an 8-byte access spans lines)")
    (fun () -> ignore (make 2));
  let t = make 3 in
  check "8-byte lines accepted" 3 (Timing.cfg t).Timing_config.line_bits

let test_dram_vs_nvm_latency () =
  let mem, clock, _ = machine_parts () in
  let dram = va 0x10000 in
  let nvm = va (Core.Layout.nv_start layout) in
  Memsim.map mem ~addr:dram ~size:0x1000;
  Memsim.map mem ~addr:nvm ~size:0x1000;
  let (), d_dram = Clock.delta clock (fun () -> ignore (Memsim.load64 mem dram)) in
  let (), d_nvm = Clock.delta clock (fun () -> ignore (Memsim.load64 mem nvm)) in
  check "cold DRAM load"
    (cfg.Timing_config.l1_hit + cfg.Timing_config.l2_hit
   + cfg.Timing_config.l3_hit + cfg.Timing_config.dram_read)
    d_dram;
  check "cold NVM load"
    (cfg.Timing_config.l1_hit + cfg.Timing_config.l2_hit
   + cfg.Timing_config.l3_hit + cfg.Timing_config.nvm_read)
    d_nvm

let test_warm_hit_cost () =
  let mem, clock, _ = machine_parts () in
  let a = va 0x10000 in
  Memsim.map mem ~addr:a ~size:0x1000;
  ignore (Memsim.load64 mem a);
  let (), d = Clock.delta clock (fun () -> ignore (Memsim.load64 mem a)) in
  check "L1 hit" cfg.Timing_config.l1_hit d

let test_alu_flush_fence () =
  let mem, clock, timing = machine_parts () in
  let nvm = va (Core.Layout.nv_start layout) in
  Memsim.map mem ~addr:nvm ~size:0x1000;
  let (), d = Clock.delta clock (fun () -> Timing.alu timing 3) in
  check "alu" 3 d;
  let (), d = Clock.delta clock (fun () -> Timing.fence timing) in
  check "fence" cfg.Timing_config.wbarrier d;
  (* Flush of a dirty NVM line costs clflush + NVM write. *)
  Memsim.store64 mem nvm 1;
  let (), d = Clock.delta clock (fun () -> Timing.flush timing ~addr:(nvm :> int)) in
  check "dirty flush"
    (cfg.Timing_config.clflush + cfg.Timing_config.nvm_write)
    d;
  (* Second flush: line no longer cached, only issue cost. *)
  let (), d = Clock.delta clock (fun () -> Timing.flush timing ~addr:(nvm :> int)) in
  check "clean flush" cfg.Timing_config.clflush d

let test_memory_counters () =
  let metrics = Metrics.create () in
  let mem, _, _ = machine_parts ~metrics () in
  let nvm = va (Core.Layout.nv_start layout) in
  Memsim.map mem ~addr:(va 0x10000) ~size:0x1000;
  Memsim.map mem ~addr:nvm ~size:0x1000;
  ignore (Memsim.load64 mem (va 0x10000));
  ignore (Memsim.load64 mem nvm);
  ignore (Memsim.load64 mem nvm);
  let get = Metrics.get metrics in
  check "dram reads" 1 (get "mem.dram_reads");
  check "nvm reads" 1 (get "mem.nvm_reads");
  check "l1 hits" 1 (get "cache.l1.hits");
  check "l1 misses" 2 (get "cache.l1.misses")

let test_working_set_behaviour () =
  (* A working set larger than L1 but within L2 should mostly hit L2 on a
     second pass. *)
  let mem, clock, _ = machine_parts () in
  let a = va 0x100000 in
  let n = 1024 (* 64 KiB of lines: 2x L1, well within L2 *) in
  Memsim.map mem ~addr:a ~size:(n * 64);
  let pass () =
    for i = 0 to n - 1 do
      ignore (Memsim.load64 mem (Vaddr.add a (i * 64)))
    done
  in
  pass ();
  let (), warm = Clock.delta clock pass in
  let per_line = warm / n in
  check_bool "second pass cheaper than DRAM" true
    (per_line < cfg.Timing_config.dram_read);
  check_bool "second pass dearer than pure L1" true
    (per_line > cfg.Timing_config.l1_hit)

let test_dirty_writeback_charged () =
  (* Write enough distinct NVM lines to force dirty evictions through
     L1/L2/L3; the model must charge NVM writes for them. *)
  let metrics = Metrics.create () in
  let mem, _, _ = machine_parts ~metrics () in
  let nvm = va (Core.Layout.nv_start layout) in
  let lines = (2 * cfg.Timing_config.l3_size) / 64 in
  Memsim.map mem ~addr:nvm ~size:(lines * 64);
  for i = 0 to lines - 1 do
    Memsim.store64 mem (Vaddr.add nvm (i * 64)) i
  done;
  check_bool "dirty evictions reached NVM" true
    (Metrics.get metrics "mem.nvm_writes" > 0)

let test_invalidate_caches_forces_misses () =
  let mem, clock, timing = machine_parts () in
  Memsim.map mem ~addr:(va 0x10000) ~size:0x1000;
  ignore (Memsim.load64 mem (va 0x10000));
  ignore (Memsim.load64 mem (va 0x10000));
  Timing.invalidate_caches timing;
  let (), d = Clock.delta clock (fun () -> ignore (Memsim.load64 mem (va 0x10000))) in
  check_bool "miss after invalidation" true (d > cfg.Timing_config.l1_hit)

(* The reference LRU level: per set, a most-recent-first list of
   [(line, dirty)] at most [ways] long, with 64-byte lines.
   [ref_access] returns what [Cache_level.access] must, and
   [ref_flush] what [Cache_level.flush_line] must. *)
type ref_level = { ways : int; sets : (int * bool) list array }

let ref_level ~sets ~ways = { ways; sets = Array.make sets [] }

let ref_access r line ~write =
  let s = line mod Array.length r.sets in
  let set = r.sets.(s) in
  match List.assoc_opt line set with
  | Some dirty ->
      r.sets.(s) <- (line, dirty || write) :: List.remove_assoc line set;
      Cache_level.hit
  | None when List.length set < r.ways ->
      r.sets.(s) <- (line, write) :: set;
      Cache_level.miss_clean
  | None ->
      let lru, dirty = List.nth set (r.ways - 1) in
      r.sets.(s) <-
        (line, write) :: List.filteri (fun i _ -> i < r.ways - 1) set;
      if dirty then lru * 64 else Cache_level.miss_clean

let ref_flush r line =
  let s = line mod Array.length r.sets in
  let dirty = Option.value ~default:false (List.assoc_opt line r.sets.(s)) in
  r.sets.(s) <- List.remove_assoc line r.sets.(s);
  dirty

let ref_invalidate r = Array.fill r.sets 0 (Array.length r.sets) []

(* Property: the cache level agrees with the reference level on every
   observable of random access/flush/invalidate streams, over several
   geometries (sets, ways): direct-mapped, 16-way sets that fill and
   evict, and levels of several eight-set chunks. *)
type cache_op = Access of int * bool | Flush of int | Invalidate

let pp_cache_op = function
  | Access (line, true) -> Printf.sprintf "w%d" line
  | Access (line, false) -> Printf.sprintf "r%d" line
  | Flush line -> Printf.sprintf "f%d" line
  | Invalidate -> "inv"

let geometry =
  QCheck2.Gen.oneofl
    [ (1, 1); (1, 4); (2, 4); (4, 2); (8, 8); (16, 2); (2, 16); (32, 16) ]

(* Three candidate lines per way keep sets conflicting. *)
let line_gen (sets, ways) = QCheck2.Gen.int_range 0 ((3 * sets * ways) - 1)

let print_stream ((sets, ways), ops) =
  Printf.sprintf "%dx%d: %s" sets ways
    (String.concat " " (List.map pp_cache_op ops))

(* Does [Cache_level] give the reference level's result for every op? *)
let matches_reference ((sets, ways), ops) =
  let c = Cache_level.create ~size_bytes:(ways * sets * 64) ~ways ~line_bits:6 in
  let r = ref_level ~sets ~ways in
  let step = function
    | Access (line, write) ->
        let expected = ref_access r line ~write in
        Cache_level.access c ~addr:(line * 64) ~write = expected
    | Flush line ->
        let expected = ref_flush r line in
        Cache_level.flush_line c ~addr:(line * 64) = expected
    | Invalidate ->
        ref_invalidate r;
        Cache_level.invalidate_all c;
        true
  in
  List.for_all step ops

let prop_cache_matches_reference =
  let gen =
    QCheck2.Gen.(
      geometry >>= fun g ->
      let line = line_gen g in
      (* Half the streams never invalidate, so large sets fill up and
         evict. *)
      int_range 0 1 >>= fun invalidates ->
      let op =
        frequency
          [
            (40, map2 (fun l w -> Access (l, w)) line bool);
            (6, map (fun l -> Flush l) line);
            (invalidates, pure Invalidate);
          ]
      in
      map (fun ops -> (g, ops)) (list_size (int_range 20 600) op))
  in
  QCheck2.Test.make ~name:"cache level matches a reference LRU model"
    ~count:300 ~print:print_stream gen matches_reference

(* The same-line hit path: most accesses repeat the previous line, and
   flushes and invalidations fall between the repeats. A line of -1 in
   the generated stream stands for the last line accessed. *)
let prop_same_line_matches_reference =
  let resolve ops =
    let last = ref 0 in
    let again l = if l < 0 then !last else l in
    List.map
      (function
        | Access (l, w) ->
            last := again l;
            Access (!last, w)
        | Flush l -> Flush (again l)
        | Invalidate -> Invalidate)
      ops
  in
  let gen =
    QCheck2.Gen.(
      geometry >>= fun g ->
      let line = line_gen g in
      let op =
        frequency
          [
            (25, map2 (fun l w -> Access (l, w)) line bool);
            (35, map (fun w -> Access (-1, w)) bool);
            (3, map (fun l -> Flush l) line);
            (3, pure (Flush (-1)));
            (2, pure Invalidate);
          ]
      in
      map (fun ops -> (g, resolve ops)) (list_size (int_range 20 600) op))
  in
  QCheck2.Test.make
    ~name:"repeated lines match a reference LRU model"
    ~count:300 ~print:print_stream gen matches_reference

(* kv-churn's pattern: most writes are followed by a flush of the same
   line, so 16-way sets hold a few valid lines and a flush mostly
   removes the front entry, leaving invalid entries behind the rest.
   Five candidate lines per set keep every set below a third full; the
   flushes of another line close a gap behind the front. *)
let prop_flushed_writes_match_reference =
  let gen =
    QCheck2.Gen.(
      oneofl [ (1, 16); (2, 16); (8, 16); (32, 16) ] >>= fun (sets, ways) ->
      let line = int_range 0 ((5 * sets) - 1) in
      let op =
        frequency
          [
            (6, map (fun l -> [ Access (l, true); Flush l ]) line);
            (4, map (fun l -> [ Access (l, false) ]) line);
            (1, map (fun l -> [ Access (l, true) ]) line);
            (2, map (fun l -> [ Flush l ]) line);
          ]
      in
      map
        (fun ops -> ((sets, ways), List.concat ops))
        (list_size (int_range 20 400) op))
  in
  QCheck2.Test.make ~name:"flushed writes match a reference LRU model"
    ~count:300 ~print:print_stream gen matches_reference

(* Property: [Timing] composes its three levels by the write-back rule
   that METRICS.md's cycle identity rests on. The reference hierarchy
   is three reference levels: a miss at L1 or L2 writes a dirty victim
   into the next level and then reads the line there, and a miss at L3
   charges a dirty victim as a memory write and the line as a memory
   read, at DRAM or NVM latency by address. After every op the clock
   and every counter must match. *)
type timing_op =
  | Line of int * bool (* address, write: [Timing.access_line] *)
  | Span of int * int * bool (* address, size, write: [Timing.access] *)
  | T_flush of int
  | T_fence
  | T_invalidate

let pp_timing_op = function
  | Line (a, w) -> Printf.sprintf "%s%d" (if w then "w" else "r") a
  | Span (a, n, w) -> Printf.sprintf "%s%d+%d" (if w then "W" else "R") a n
  | T_flush a -> Printf.sprintf "f%d" a
  | T_fence -> "fence"
  | T_invalidate -> "inv"

(* 2 x 2-way L1, 4 x 4-way L2 and 16 x 8-way L3 (two chunks) over 768
   lines, the upper half NVM. *)
let small_cfg =
  {
    Timing_config.default with
    l1_size = 256;
    l1_ways = 2;
    l2_size = 1024;
    l2_ways = 4;
    l3_size = 8192;
    l3_ways = 8;
  }

let small_lines = 768
let small_is_nvm a = a >= small_lines / 2 * 64

let timing_counters =
  [
    "cache.l1.hits"; "cache.l1.misses"; "cache.l2.hits"; "cache.l2.misses";
    "cache.l3.hits"; "cache.l3.misses"; "mem.dram_reads"; "mem.dram_writes";
    "mem.nvm_reads"; "mem.nvm_writes"; "timing.alu_cycles"; "timing.fences";
    "timing.flushes";
  ]

let matches_hierarchy ops =
  let cfg = small_cfg in
  let clock = Clock.create () and metrics = Metrics.create () in
  let t = Timing.create ~cfg ~metrics ~clock ~is_nvm:small_is_nvm () in
  let level size ways = ref_level ~sets:(size / (ways * 64)) ~ways in
  let levels =
    [|
      level cfg.l1_size cfg.l1_ways;
      level cfg.l2_size cfg.l2_ways;
      level cfg.l3_size cfg.l3_ways;
    |]
  in
  let hit_cost = [| cfg.l1_hit; cfg.l2_hit; cfg.l3_hit |] in
  let cycles = ref 0 and counts = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace counts n 0) timing_counters;
  let charge name c =
    Hashtbl.replace counts name (Hashtbl.find counts name + 1);
    cycles := !cycles + c
  in
  let memory addr ~write =
    match (small_is_nvm addr, write) with
    | true, true -> charge "mem.nvm_writes" cfg.nvm_write
    | true, false -> charge "mem.nvm_reads" cfg.nvm_read
    | false, true -> charge "mem.dram_writes" cfg.dram_write
    | false, false -> charge "mem.dram_reads" cfg.dram_read
  in
  let rec access i addr ~write =
    let r = ref_access levels.(i) (addr / 64) ~write in
    let outcome = if r = Cache_level.hit then "hits" else "misses" in
    charge (Printf.sprintf "cache.l%d.%s" (i + 1) outcome) hit_cost.(i);
    if r <> Cache_level.hit then
      if i < 2 then begin
        if r >= 0 then access (i + 1) r ~write:true;
        access (i + 1) addr ~write:false
      end
      else begin
        if r >= 0 then memory r ~write:true;
        memory addr ~write:false
      end
  in
  let step op =
    (match op with
    | Line (a, write) ->
        access 0 (a land lnot 63) ~write;
        Timing.access_line t ~addr:a ~write
    | Span (a, size, write) ->
        for line = a / 64 to (a + size - 1) / 64 do
          access 0 (line * 64) ~write
        done;
        Timing.access t ~addr:a ~size ~write
    | T_flush a ->
        charge "timing.flushes" cfg.clflush;
        let dirty = Array.map (fun l -> ref_flush l (a / 64)) levels in
        if Array.mem true dirty then memory a ~write:true;
        Timing.flush t ~addr:a
    | T_fence ->
        charge "timing.fences" cfg.wbarrier;
        Timing.fence t
    | T_invalidate ->
        Array.iter ref_invalidate levels;
        Timing.invalidate_caches t);
    let expected =
      Hashtbl.fold (fun n v acc -> (n, v) :: acc) counts [] |> List.sort compare
    in
    Clock.cycles clock = !cycles && Metrics.snapshot metrics = expected
  in
  List.for_all step ops

let prop_timing_matches_hierarchy =
  let gen =
    QCheck2.Gen.(
      let addr = int_range 0 ((small_lines * 64) - 1) in
      let op =
        frequency
          [
            (30, map2 (fun a w -> Line (a, w)) addr bool);
            (6, map3 (fun a n w -> Span (a, n, w)) addr (int_range 1 200) bool);
            (5, map (fun a -> T_flush a) addr);
            (2, pure T_fence);
            (1, pure T_invalidate);
          ]
      in
      list_size (int_range 20 600) op)
  in
  QCheck2.Test.make ~name:"timing matches a reference hierarchy" ~count:200
    ~print:(fun ops -> String.concat " " (List.map pp_timing_op ops))
    gen matches_hierarchy

let () =
  Alcotest.run "cachesim"
    [
      ( "clock",
        [
          Alcotest.test_case "tick/delta/reset" `Quick test_clock;
          Alcotest.test_case "seconds conversion" `Quick test_clock_seconds;
        ] );
      ( "cache-level",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "dirty eviction + flush" `Quick
            test_cache_dirty_eviction;
          Alcotest.test_case "invalidate" `Quick test_cache_invalidate;
          QCheck_alcotest.to_alcotest prop_cache_matches_reference;
          QCheck_alcotest.to_alcotest prop_same_line_matches_reference;
          QCheck_alcotest.to_alcotest prop_flushed_writes_match_reference;
        ] );
      ( "timing",
        [
          Alcotest.test_case "line_bits below 3 rejected" `Quick
            test_line_bits_floor;
          Alcotest.test_case "DRAM vs NVM latency" `Quick
            test_dram_vs_nvm_latency;
          Alcotest.test_case "warm hit cost" `Quick test_warm_hit_cost;
          Alcotest.test_case "alu/flush/fence" `Quick test_alu_flush_fence;
          Alcotest.test_case "memory stats" `Quick test_memory_counters;
          Alcotest.test_case "working-set behaviour" `Quick
            test_working_set_behaviour;
          Alcotest.test_case "dirty write-back charged" `Quick
            test_dirty_writeback_charged;
          Alcotest.test_case "invalidate forces misses" `Quick
            test_invalidate_caches_forces_misses;
          QCheck_alcotest.to_alcotest prop_timing_matches_hierarchy;
        ] );
    ]
