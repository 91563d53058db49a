module Clock = Core.Clock
module Cache_level = Core.Cache_level
module Timing = Core.Timing
module Timing_config = Core.Timing_config
module Memsim = Core.Memsim
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

let test_cache_stats_and_invalidate () =
  let c = Cache_level.create ~size_bytes:1024 ~ways:2 ~line_bits:6 in
  ignore (Cache_level.access c ~addr:0 ~write:false);
  ignore (Cache_level.access c ~addr:0 ~write:false);
  let s = Cache_level.stats c in
  check "hits" 1 s.Cache_level.hits;
  check "misses" 1 s.Cache_level.misses;
  Cache_level.invalidate_all c;
  check_bool "hit after invalidate_all" true
    (is_miss (Cache_level.access c ~addr:0 ~write:false));
  Cache_level.reset_stats c;
  check "stats reset" 0 (Cache_level.stats c).Cache_level.hits

(* Timing over memsim *)

let layout = Core.Layout.default

let machine_parts () =
  let mem = Memsim.create () in
  let clock = Clock.create () in
  let timing =
    Timing.create ~clock ~is_nvm:(Core.Layout.in_nv_space layout) ()
  in
  Timing.attach timing mem;
  (mem, clock, timing)

let cfg = Timing_config.default

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

let test_mem_stats () =
  let mem, _, timing = machine_parts () in
  let nvm = va (Core.Layout.nv_start layout) in
  Memsim.map mem ~addr:(va 0x10000) ~size:0x1000;
  Memsim.map mem ~addr:nvm ~size:0x1000;
  ignore (Memsim.load64 mem (va 0x10000));
  ignore (Memsim.load64 mem nvm);
  ignore (Memsim.load64 mem nvm);
  let s = Timing.mem_stats timing in
  check "dram reads" 1 s.Timing.dram_reads;
  check "nvm reads" 1 s.Timing.nvm_reads;
  Timing.reset_stats timing;
  check "reset" 0 (Timing.mem_stats timing).Timing.nvm_reads

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
  let mem, _, timing = machine_parts () in
  let nvm = va (Core.Layout.nv_start layout) in
  let lines = (2 * cfg.Timing_config.l3_size) / 64 in
  Memsim.map mem ~addr:nvm ~size:(lines * 64);
  for i = 0 to lines - 1 do
    Memsim.store64 mem (Vaddr.add nvm (i * 64)) i
  done;
  let s = Timing.mem_stats timing in
  check_bool "dirty evictions reached NVM" true (s.Timing.nvm_writes > 0)

let test_pp_stats_renders () =
  let _, _, timing = machine_parts () in
  let out = Format.asprintf "%a" Timing.pp_stats timing in
  check_bool "stats render" true (String.length out > 0)

let test_invalidate_caches_forces_misses () =
  let mem, clock, timing = machine_parts () in
  Memsim.map mem ~addr:(va 0x10000) ~size:0x1000;
  ignore (Memsim.load64 mem (va 0x10000));
  ignore (Memsim.load64 mem (va 0x10000));
  Timing.invalidate_caches timing;
  let (), d = Clock.delta clock (fun () -> ignore (Memsim.load64 mem (va 0x10000))) in
  check_bool "miss after invalidation" true (d > cfg.Timing_config.l1_hit)

(* Property: the cache level agrees with a naive reference model on
   every observable of random access/flush/invalidate streams, over
   several geometries. The reference keeps, per set, a most-recent-first
   list of [(line, dirty)] at most [ways] long. *)
type cache_op = Access of int * bool | Flush of int | Invalidate

let pp_cache_op = function
  | Access (line, true) -> Printf.sprintf "w%d" line
  | Access (line, false) -> Printf.sprintf "r%d" line
  | Flush line -> Printf.sprintf "f%d" line
  | Invalidate -> "inv"

let prop_cache_matches_reference =
  let gen =
    QCheck2.Gen.(
      oneofl [ (1, 4); (2, 4); (4, 2); (8, 8); (16, 2) ] >>= fun (sets, ways) ->
      (* Three candidate lines per way keep sets conflicting; half the
         streams never invalidate, so large sets fill up and evict. *)
      let line = int_range 0 ((3 * sets * ways) - 1) in
      int_range 0 1 >>= fun invalidates ->
      let op =
        frequency
          [
            (40, map2 (fun l w -> Access (l, w)) line bool);
            (6, map (fun l -> Flush l) line);
            (invalidates, pure Invalidate);
          ]
      in
      map (fun ops -> ((sets, ways), ops)) (list_size (int_range 20 600) op))
  in
  let print ((sets, ways), ops) =
    Printf.sprintf "%dx%d: %s" sets ways
      (String.concat " " (List.map pp_cache_op ops))
  in
  QCheck2.Test.make ~name:"cache level matches a reference LRU model"
    ~count:300 ~print gen
    (fun ((sets, ways), ops) ->
      let c =
        Cache_level.create ~size_bytes:(ways * sets * 64) ~ways ~line_bits:6
      in
      let reference = Array.make sets [] in
      let hits = ref 0 and misses = ref 0 in
      let step op =
        match op with
        | Access (line, write) ->
            let s = line mod sets in
            let set = reference.(s) in
            let expected =
              match List.assoc_opt line set with
              | Some dirty ->
                  incr hits;
                  reference.(s) <-
                    (line, dirty || write) :: List.remove_assoc line set;
                  Cache_level.hit
              | None when List.length set < ways ->
                  incr misses;
                  reference.(s) <- (line, write) :: set;
                  Cache_level.miss_clean
              | None ->
                  incr misses;
                  let lru, dirty = List.nth set (ways - 1) in
                  reference.(s) <-
                    (line, write) :: List.filteri (fun i _ -> i < ways - 1) set;
                  if dirty then lru * 64 else Cache_level.miss_clean
            in
            Cache_level.access c ~addr:(line * 64) ~write = expected
        | Flush line ->
            let s = line mod sets in
            let expected =
              Option.value ~default:false (List.assoc_opt line reference.(s))
            in
            reference.(s) <- List.remove_assoc line reference.(s);
            Cache_level.flush_line c ~addr:(line * 64) = expected
        | Invalidate ->
            Array.fill reference 0 sets [];
            Cache_level.invalidate_all c;
            true
      in
      List.for_all
        (fun op ->
          step op
          &&
          let st = Cache_level.stats c in
          st.Cache_level.hits = !hits && st.Cache_level.misses = !misses)
        ops)

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
          Alcotest.test_case "stats + invalidate" `Quick
            test_cache_stats_and_invalidate;
          QCheck_alcotest.to_alcotest prop_cache_matches_reference;
        ] );
      ( "timing",
        [
          Alcotest.test_case "DRAM vs NVM latency" `Quick
            test_dram_vs_nvm_latency;
          Alcotest.test_case "warm hit cost" `Quick test_warm_hit_cost;
          Alcotest.test_case "alu/flush/fence" `Quick test_alu_flush_fence;
          Alcotest.test_case "memory stats" `Quick test_mem_stats;
          Alcotest.test_case "working-set behaviour" `Quick
            test_working_set_behaviour;
          Alcotest.test_case "dirty write-back charged" `Quick
            test_dirty_writeback_charged;
          Alcotest.test_case "pp_stats" `Quick test_pp_stats_renders;
          Alcotest.test_case "invalidate forces misses" `Quick
            test_invalidate_caches_forces_misses;
        ] );
    ]
