module Layout = Nvmpi_addr.Layout
module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Rid = K.Rid
module Memsim = Nvmpi_memsim.Memsim
module Clock = Nvmpi_cachesim.Clock
module Timing = Nvmpi_cachesim.Timing
module Timing_config = Nvmpi_cachesim.Timing_config
module Manager = Nvmpi_nvregion.Manager
module Region = Nvmpi_nvregion.Region
module Store = Nvmpi_nvregion.Store
module Metrics = Nvmpi_obs.Metrics

(* Per-machine counter cells for the representations' hot paths: one
   slot per hot-path counter, indexed by the constants below. Slots
   start as the [Metrics.Handle.unresolved] sentinel and are resolved
   on first bump, so a counter registers (and appears in snapshots) at
   exactly the moment the string-keyed [count] path would have
   registered it. *)
module Cell = struct
  let normal_stores = 0
  let normal_loads = 1
  let off_holder_stores = 2
  let off_holder_loads = 3
  let riv_stores = 4
  let riv_loads = 5
  let fat_stores = 6
  let fat_loads = 7
  let fat_cached_stores = 8
  let fat_cached_loads = 9
  let fat_cache_hits = 10
  let fat_cache_misses = 11
  let based_stores = 12
  let based_loads = 13
  let swizzle_stores = 14
  let swizzle_loads = 15
  let swizzle_packed_stores = 16
  let swizzle_swizzled = 17
  let swizzle_unswizzled = 18
  let packed_fat_stores = 19
  let packed_fat_loads = 20
  let hw_oid_stores = 21
  let hw_oid_loads = 22
  let dur_traversal_loads = 23
  let dur_window_flushes = 24
  let dur_helper_flushes = 25
  let dur_marks_set = 26
  let dur_marks_cleared = 27
  let slots = 28
end

type t = {
  layout : Layout.t;
  mem : Memsim.t;
  clock : Clock.t;
  timing : Timing.t;
  manager : Manager.t;
  nvspace : Nvspace.t;
  fat : Fat_table.t;
  metrics : Metrics.t;
  cells : Metrics.Handle.t array;
  mutable based_base : Vaddr.t;
      (* Vaddr.null = unset; the data area never contains address 0 *)
  mutable crash_hook : (unit -> unit) option;
  durability : Durability.t;
  fault : Durability.fault option;
  mutable dram_cursor : int;
  dram_limit : int;
}

exception
  Cross_region_store of { holder : Vaddr.t; target : Vaddr.t; repr : string }

(* Fixed carve-outs in the simulated DRAM (volatile) address range. *)
let dram_base = 0x10_0000 (* 1 MiB *)
let fat_table_off = 0
let fat_slots = 4096
let fat_list_off = fat_slots * 16
let fat_list_cap = 4096
let globals_off = fat_list_off + (fat_list_cap * 16)
let heap_off = globals_off + 4096
let dram_size = 512 * 1024 * 1024

let create ?(layout = Layout.default) ?cfg ?metrics ?seed
    ?(durability = Durability.Eager) ?fault ~store () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let clock = Clock.create () in
  let timing =
    Timing.create ?cfg ~metrics ~clock
      ~is_nvm:(fun a -> Layout.in_nv_space layout a)
      ()
  in
  let mem = Memsim.create ~metrics ~timing () in
  Memsim.map mem ~addr:(Vaddr.v dram_base) ~size:dram_size;
  let manager = Manager.create ?seed ~layout ~mem ~store () in
  let nvspace = Nvspace.create ~layout ~mem ~timing ~metrics () in
  let fat =
    Fat_table.create ~mem ~timing ~layout ~metrics
      ~table_base:(Vaddr.v (dram_base + fat_table_off))
      ~slots:fat_slots
      ~list_base:(Vaddr.v (dram_base + fat_list_off))
      ~list_cap:fat_list_cap
  in
  {
    layout;
    mem;
    clock;
    timing;
    manager;
    nvspace;
    fat;
    metrics;
    cells = Array.make Cell.slots Metrics.Handle.unresolved;
    based_base = Vaddr.null;
    crash_hook = None;
    durability;
    fault;
    dram_cursor = dram_base + heap_off;
    dram_limit = dram_base + dram_size;
  }

let create_region t ~size = Manager.create_region t.manager ~size

let open_region ?at_nvbase t rid =
  let r = Manager.open_region ?at_nvbase t.manager rid in
  Nvspace.register_region t.nvspace ~rid ~base:(Region.base r);
  Fat_table.put t.fat ~rid ~base:(Region.base r);
  r

(* The one-entry fat-pointer cache ([lastID]/[lastAddr]) may hold the
   region being unmapped; a later reopen at a different segment must not
   resolve through the stale base. The drop goes through the unobserved
   debug port: like the manager's mapping, unmapping is an OS-level
   operation whose bookkeeping is not part of any measured pointer
   operation (region IDs are never 0, so zeroing means "empty"). *)
let invalidate_fat_cache t rid =
  let lastid = Vaddr.v (dram_base + globals_off) in
  let cached =
    Bytes.get_int64_le (Memsim.peek_bytes t.mem ~addr:lastid ~len:8) 0
  in
  if Int64.to_int cached = (rid : Rid.t :> int) then
    Memsim.poke_bytes t.mem ~addr:lastid (Bytes.make 16 '\000')

let close_region t rid =
  let r = Manager.region_exn t.manager rid in
  let base = Region.base r in
  Manager.close_region t.manager rid;
  Nvspace.unregister_region t.nvspace ~rid ~base;
  Fat_table.remove t.fat ~rid;
  invalidate_fat_cache t rid;
  if Vaddr.equal t.based_base base then t.based_base <- Vaddr.null

(* Section 4.4's migration to a larger region: persist, grow the image,
   remap. All position-independent contents survive the move. *)
let migrate_region t rid ~size =
  let was_based =
    match Manager.region t.manager rid with
    | Some r -> Vaddr.equal t.based_base (Region.base r)
    | None -> false
  in
  if Manager.region t.manager rid <> None then close_region t rid;
  Store.grow (Manager.store t.manager) ~rid ~size;
  let r = open_region t rid in
  if was_based then t.based_base <- Region.base r;
  r

(* Remap within one run: close (persisting the image) and reopen at a
   fresh randomized segment, retrying until the segment actually differs
   — the manager's placement is random and may repeat. Deterministic
   under a seeded manager; replaces the unmap+map-at-new-base sequences
   previously copy-pasted by examples and tests. *)
let remap_region t rid =
  let old_base = Region.base (Manager.region_exn t.manager rid) in
  let was_based = Vaddr.equal t.based_base old_base in
  close_region t rid;
  let rec reopen tries =
    let r = open_region t rid in
    if Vaddr.equal (Region.base r) old_base && tries > 0 then begin
      close_region t rid;
      reopen (tries - 1)
    end
    else r
  in
  let r = reopen 64 in
  if was_based then t.based_base <- Region.base r;
  r

let close_all t =
  List.iter (fun r -> close_region t (Region.rid r))
    (Manager.open_regions t.manager)

let region t rid = Manager.region t.manager rid
let region_exn t rid = Manager.region_exn t.manager rid
let region_of_addr t a = Manager.region_of_addr t.manager a

let rid_of_addr_exn t a =
  match region_of_addr t a with
  | Some r -> Region.rid r
  | None ->
      invalid_arg
        (Printf.sprintf "no open region contains 0x%x" (a : Vaddr.t :> int))

let set_based_region t rid = t.based_base <- Region.base (region_exn t rid)

let dram_alloc t ?(align = 8) n =
  if n <= 0 then invalid_arg "Machine.dram_alloc";
  let a = Nvmpi_addr.Bitops.align_up t.dram_cursor align in
  if a + n > t.dram_limit then failwith "Machine.dram_alloc: out of DRAM";
  t.dram_cursor <- a + n;
  Vaddr.v a

let lastid_addr t = ignore t; Vaddr.v (dram_base + globals_off)
let lastaddr_addr t = ignore t; Vaddr.v (dram_base + globals_off + 8)

let[@inline] load64 t a = Memsim.load64 t.mem a
let[@inline] store64 t a v = Memsim.store64 t.mem a v
let alu t n = Timing.alu t.timing n
let cycles t = Clock.cycles t.clock
let is_nvm t a = K.in_nv_space t.layout a
let metrics t = t.metrics
let count ?by t name = Metrics.incr ?by t.metrics name

let[@inline never] resolve_cell t i name =
  let c = Metrics.handle t.metrics name in
  t.cells.(i) <- c;
  c

let[@inline] cell t i name =
  let c = Array.unsafe_get t.cells i in
  if Metrics.Handle.resolved c then c else resolve_cell t i name

let[@inline] bump t i name = Metrics.Handle.bump (cell t i name)
