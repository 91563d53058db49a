module Layout = Nvmpi_addr.Layout
module Bitops = Nvmpi_addr.Bitops
module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Riv = K.Riv
module Rid = K.Rid
module Seg = K.Seg
module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Clock = Nvmpi_cachesim.Clock
module Metrics = Nvmpi_obs.Metrics

type phases = {
  mutable extract_cycles : int;
  mutable id2addr_cycles : int;
  mutable final_cycles : int;
}

type t = {
  layout : Layout.t;
  mem : Memsim.t;
  timing : Timing.t;
  rid_entry : int; (* entry sizes in bytes *)
  base_entry : int;
  phases : phases;
  c_x2p : int ref;
  c_p2x : int ref;
  c_base_loads : int ref;
  c_rid_loads : int ref;
}

exception Unknown_region of { rid : Rid.t }
exception Not_nv_data of { addr : Vaddr.t }

let create ~layout ~mem ~timing ?metrics () =
  let rid_entry = Layout.rid_entry_bytes layout in
  let base_entry = Layout.base_entry_bytes layout in
  (* Map the two table areas. Entries exist only for data-area segment
     bases / valid region IDs, so the mapped ranges below cover every
     entry either table can contain. *)
  let s_r = Bitops.log2_exact rid_entry in
  let s_b = Bitops.log2_exact base_entry in
  let nv = Layout.nv_start layout in
  let rid_lo = nv + (Layout.data_nvbase_min layout lsl s_r) in
  let rid_size = Layout.data_nvbase_min layout lsl s_r in
  Memsim.map mem ~addr:(Vaddr.v rid_lo) ~size:rid_size;
  let base_lo = nv + (1 lsl (layout.Layout.l4 + s_b)) in
  let base_size = 1 lsl (layout.Layout.l4 + s_b) in
  Memsim.map mem ~addr:(Vaddr.v base_lo) ~size:base_size;
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    layout;
    mem;
    timing;
    rid_entry;
    base_entry;
    phases = { extract_cycles = 0; id2addr_cycles = 0; final_cycles = 0 };
    c_x2p = Metrics.counter metrics "riv.x2p";
    c_p2x = Metrics.counter metrics "riv.p2x";
    c_base_loads = Metrics.counter metrics "riv.base_table_loads";
    c_rid_loads = Metrics.counter metrics "riv.rid_table_loads";
  }

let layout t = t.layout
let phases t = t.phases

let reset_phases t =
  t.phases.extract_cycles <- 0;
  t.phases.id2addr_cycles <- 0;
  t.phases.final_cycles <- 0

let register_region t ~rid ~base =
  let l = t.layout in
  if not (K.is_data_addr l base) then raise (Not_nv_data { addr = base });
  Memsim.store_sized t.mem ~size:t.rid_entry
    (K.rid_entry_vaddr l base)
    (rid : Rid.t :> int);
  Memsim.store_sized t.mem ~size:t.base_entry
    (K.base_entry_vaddr l ~rid)
    (Seg.to_int (K.seg_of_vaddr l base))

(* A region reopened at a fresh segment writes a fresh RID-table page;
   releasing each table page once its entries are all zero keeps the
   tables at the pages live regions use. A released page reads as zeros
   and timing charges by address, so no cycle or counter moves. *)
let unregister_region t ~rid ~base =
  let l = t.layout in
  let rid_entry = K.rid_entry_vaddr l base in
  let base_entry = K.base_entry_vaddr l ~rid in
  Memsim.store_sized t.mem ~size:t.rid_entry rid_entry 0;
  Memsim.store_sized t.mem ~size:t.base_entry base_entry 0;
  Memsim.drop_zero_page t.mem rid_entry;
  Memsim.drop_zero_page t.mem base_entry

let id2addr t rid =
  let l = t.layout in
  Timing.alu t.timing 2;
  let entry = K.base_entry_vaddr l ~rid in
  incr t.c_base_loads;
  let nvbase = Memsim.load_sized t.mem ~size:t.base_entry entry in
  if nvbase = 0 then raise (Unknown_region { rid });
  Timing.alu t.timing 1;
  K.vaddr_of_seg l (Seg.v nvbase)

let addr2id t a =
  let l = t.layout in
  if not (K.is_data_addr l a) then raise (Not_nv_data { addr = a });
  Timing.alu t.timing 2;
  let entry = K.rid_entry_vaddr l a in
  incr t.c_rid_loads;
  let rid = Memsim.load_sized t.mem ~size:t.rid_entry entry in
  if rid = 0 then raise (Unknown_region { rid = Rid.none });
  Rid.v rid

let get_base t a =
  Timing.alu t.timing 1;
  K.base_of_vaddr t.layout a

(* The three phases of a RIV read are timed separately so the breakdown
   experiment (Section 6.2) can report their shares. *)
let x2p t v =
  incr t.c_x2p;
  if Riv.is_null v then begin
    Timing.alu t.timing 2;
    Vaddr.null
  end
  else begin
    let l = t.layout in
    let clock = Timing.clock t.timing in
    let c0 = Clock.cycles clock in
    Timing.alu t.timing 3;
    let rid = K.rid_of_riv l v in
    let offset = K.offset_of_riv l v in
    let c1 = Clock.cycles clock in
    Timing.alu t.timing 3;
    let entry = K.base_entry_vaddr l ~rid in
    let c2 = Clock.cycles clock in
    incr t.c_base_loads;
    let nvbase = Memsim.load_sized t.mem ~size:t.base_entry entry in
    if nvbase = 0 then raise (Unknown_region { rid });
    Timing.alu t.timing 2;
    let addr =
      K.vaddr_in_segment l ~base:(K.vaddr_of_seg l (Seg.v nvbase)) ~offset
    in
    let c3 = Clock.cycles clock in
    t.phases.extract_cycles <- t.phases.extract_cycles + c1 - c0;
    t.phases.id2addr_cycles <- t.phases.id2addr_cycles + c2 - c1;
    t.phases.final_cycles <- t.phases.final_cycles + c3 - c2;
    addr
  end

let p2x t a =
  incr t.c_p2x;
  if Vaddr.is_null a then Riv.null
  else begin
    let l = t.layout in
    let rid = addr2id t a in
    Timing.alu t.timing 2;
    let offset = K.seg_offset l a in
    Timing.alu t.timing 1;
    K.riv_of_rid_off l ~rid ~offset
  end
