module Memsim = Nvmpi_memsim.Memsim
module Metrics = Nvmpi_obs.Metrics

type mem_stats = {
  mutable dram_reads : int;
  mutable dram_writes : int;
  mutable nvm_reads : int;
  mutable nvm_writes : int;
  mutable flushes : int;
  mutable fences : int;
  mutable alu_cycles : int;
}

(* Counter cells resolved once at creation; the observer path runs on
   every simulated access. *)
type counters = {
  c_dram_r : int ref;
  c_dram_w : int ref;
  c_nvm_r : int ref;
  c_nvm_w : int ref;
  c_flushes : int ref;
  c_fences : int ref;
  c_alu : int ref;
  c_l1_h : int ref;
  c_l1_m : int ref;
  c_l2_h : int ref;
  c_l2_m : int ref;
  c_l3_h : int ref;
  c_l3_m : int ref;
}

type persist_event = Flushed of int | Fenced

type t = {
  cfg : Timing_config.t;
  line : int; (* 1 lsl cfg.line_bits, precomputed for the access path *)
  line_mask : int; (* lnot (line - 1): line-aligns an address *)
  clock : Clock.t;
  is_nvm : int -> bool;
  l1 : Cache_level.t;
  l2 : Cache_level.t;
  l3 : Cache_level.t;
  stats : mem_stats;
  c : counters;
  mutable persist_hook : (persist_event -> unit) option;
}

let create ?(cfg = Timing_config.default) ?metrics ~clock ~is_nvm () =
  let lvl size ways =
    Cache_level.create ~size_bytes:size ~ways ~line_bits:cfg.line_bits
  in
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let c name = Metrics.counter metrics name in
  {
    cfg;
    line = 1 lsl cfg.line_bits;
    line_mask = lnot ((1 lsl cfg.line_bits) - 1);
    clock;
    is_nvm;
    l1 = lvl cfg.l1_size cfg.l1_ways;
    l2 = lvl cfg.l2_size cfg.l2_ways;
    l3 = lvl cfg.l3_size cfg.l3_ways;
    stats =
      {
        dram_reads = 0;
        dram_writes = 0;
        nvm_reads = 0;
        nvm_writes = 0;
        flushes = 0;
        fences = 0;
        alu_cycles = 0;
      };
    c =
      {
        c_dram_r = c "mem.dram_reads";
        c_dram_w = c "mem.dram_writes";
        c_nvm_r = c "mem.nvm_reads";
        c_nvm_w = c "mem.nvm_writes";
        c_flushes = c "timing.flushes";
        c_fences = c "timing.fences";
        c_alu = c "timing.alu_cycles";
        c_l1_h = c "cache.l1.hits";
        c_l1_m = c "cache.l1.misses";
        c_l2_h = c "cache.l2.hits";
        c_l2_m = c "cache.l2.misses";
        c_l3_h = c "cache.l3.hits";
        c_l3_m = c "cache.l3.misses";
      };
    persist_hook = None;
  }

let set_persist_hook t hook = t.persist_hook <- hook

let cfg t = t.cfg
let clock t = t.clock
let l1 t = t.l1
let l2 t = t.l2
let l3 t = t.l3
let mem_stats t = t.stats

let charge_mem_read t addr =
  if t.is_nvm addr then begin
    t.stats.nvm_reads <- t.stats.nvm_reads + 1;
    incr t.c.c_nvm_r;
    Clock.tick t.clock t.cfg.nvm_read
  end
  else begin
    t.stats.dram_reads <- t.stats.dram_reads + 1;
    incr t.c.c_dram_r;
    Clock.tick t.clock t.cfg.dram_read
  end

let charge_mem_write t addr =
  if t.is_nvm addr then begin
    t.stats.nvm_writes <- t.stats.nvm_writes + 1;
    incr t.c.c_nvm_w;
    Clock.tick t.clock t.cfg.nvm_write
  end
  else begin
    t.stats.dram_writes <- t.stats.dram_writes + 1;
    incr t.c.c_dram_w;
    Clock.tick t.clock t.cfg.dram_write
  end

(* A dirty line evicted from L3 is written back; lower-level dirty
   evictions land in the next level (modelled by re-accessing it there).
   One specialized function per level — no level-tag dispatch on the
   per-line path — consuming Cache_level's unboxed result encoding. *)
let access_l3 t ~addr ~write =
  let r = Cache_level.access t.l3 ~addr ~write in
  if r = Cache_level.hit then begin
    incr t.c.c_l3_h;
    Clock.tick t.clock t.cfg.l3_hit
  end
  else begin
    incr t.c.c_l3_m;
    Clock.tick t.clock t.cfg.l3_hit;
    if r >= 0 then charge_mem_write t r;
    charge_mem_read t addr
  end

let access_l2 t ~addr ~write =
  let r = Cache_level.access t.l2 ~addr ~write in
  if r = Cache_level.hit then begin
    incr t.c.c_l2_h;
    Clock.tick t.clock t.cfg.l2_hit
  end
  else begin
    incr t.c.c_l2_m;
    Clock.tick t.clock t.cfg.l2_hit;
    if r >= 0 then access_l3 t ~addr:r ~write:true;
    access_l3 t ~addr ~write:false
  end

let access_l1 t ~addr ~write =
  let r = Cache_level.access t.l1 ~addr ~write in
  if r = Cache_level.hit then begin
    incr t.c.c_l1_h;
    Clock.tick t.clock t.cfg.l1_hit
  end
  else begin
    incr t.c.c_l1_m;
    Clock.tick t.clock t.cfg.l1_hit;
    if r >= 0 then access_l2 t ~addr:r ~write:true;
    access_l2 t ~addr ~write:false
  end

(* Fused single-line entry: a naturally aligned
   power-of-two access of at most a line never crosses a line boundary,
   so the general [access] below always takes its [first = last] branch
   and charges [access_l1 ~addr:(addr land line_mask)]. This entry is
   that branch, callable directly from a fused Memsim access with no
   size loop and no observer closure in between. *)
let[@inline] access_line t ~addr ~write =
  access_l1 t ~addr:(addr land t.line_mask) ~write

let access t ~addr ~size ~write =
  let first = addr land t.line_mask in
  let last = (addr + size - 1) land t.line_mask in
  if first = last then access_l1 t ~addr:first ~write
  else begin
    let a = ref first in
    while !a <= last do
      access_l1 t ~addr:!a ~write;
      a := !a + t.line
    done
  end

let attach t mem =
  Memsim.add_observer mem (fun ~write ~addr ~size -> access t ~addr ~size ~write)

let alu t n =
  t.stats.alu_cycles <- t.stats.alu_cycles + n;
  t.c.c_alu := !(t.c.c_alu) + n;
  Clock.tick t.clock n

let flush t ~addr =
  t.stats.flushes <- t.stats.flushes + 1;
  incr t.c.c_flushes;
  Clock.tick t.clock t.cfg.clflush;
  let d1 = Cache_level.flush_line t.l1 ~addr in
  let d2 = Cache_level.flush_line t.l2 ~addr in
  let d3 = Cache_level.flush_line t.l3 ~addr in
  if d1 || d2 || d3 then charge_mem_write t addr;
  match t.persist_hook with Some f -> f (Flushed addr) | None -> ()

let fence t =
  t.stats.fences <- t.stats.fences + 1;
  incr t.c.c_fences;
  Clock.tick t.clock t.cfg.wbarrier;
  match t.persist_hook with Some f -> f Fenced | None -> ()

let reset_stats t =
  Cache_level.reset_stats t.l1;
  Cache_level.reset_stats t.l2;
  Cache_level.reset_stats t.l3;
  let s = t.stats in
  s.dram_reads <- 0;
  s.dram_writes <- 0;
  s.nvm_reads <- 0;
  s.nvm_writes <- 0;
  s.flushes <- 0;
  s.fences <- 0;
  s.alu_cycles <- 0

let invalidate_caches t =
  Cache_level.invalidate_all t.l1;
  Cache_level.invalidate_all t.l2;
  Cache_level.invalidate_all t.l3

let pp_stats ppf t =
  let s = t.stats in
  let lvl name c =
    let st = Cache_level.stats c in
    Format.fprintf ppf "%s: %d hits / %d misses@ " name st.Cache_level.hits
      st.Cache_level.misses
  in
  Format.fprintf ppf "@[<v>";
  lvl "L1" t.l1;
  lvl "L2" t.l2;
  lvl "L3" t.l3;
  Format.fprintf ppf
    "DRAM r/w: %d/%d; NVM r/w: %d/%d; flushes: %d; fences: %d; alu: %d@]"
    s.dram_reads s.dram_writes s.nvm_reads s.nvm_writes s.flushes s.fences
    s.alu_cycles
