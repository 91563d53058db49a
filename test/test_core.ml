module Machine = Core.Machine
module Nvspace = Core.Nvspace
module Fat_table = Core.Fat_table
module Repr = Core.Repr
module Region = Core.Region
module Store = Core.Store
module Layout = Core.Layout
module Memsim = Core.Memsim
module Clock = Core.Clock
module Kinds = Core.Kinds
module Vaddr = Kinds.Vaddr

(* Tests bless host integers at the Figure 8 trust boundary and coerce
   typed results back out for Alcotest's int checkers. *)
let va = Vaddr.v
let ia (a : Vaddr.t) = (a :> int)
let ri = Kinds.Rid.v
let ir (r : Kinds.Rid.t) = (r :> int)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let machine ?seed () =
  let store = Store.create () in
  (store, Machine.create ?seed ~store ())

let with_region ?seed ?(size = 1 lsl 20) () =
  let store, m = machine ?seed () in
  let rid = Machine.create_region m ~size in
  let r = Machine.open_region m rid in
  (store, m, r)

(* Nvspace: the RIV tables *)

let test_nvspace_register_and_convert () =
  let _, m, r = with_region ~seed:1 () in
  let base = Region.base r in
  check "id2addr" (ia base)
    (ia (Nvspace.id2addr m.Machine.nvspace (Region.rid r)));
  check "addr2id" (ir (Region.rid r))
    (ir (Nvspace.addr2id m.Machine.nvspace (Vaddr.add base 12345)));
  check "get_base" (ia base)
    (ia (Nvspace.get_base m.Machine.nvspace (Vaddr.add base 12345)))

let test_nvspace_x2p_p2x_roundtrip () =
  let _, m, r = with_region ~seed:2 () in
  let a = Region.alloc r 64 in
  let v = Nvspace.p2x m.Machine.nvspace a in
  check "roundtrip" (ia a) (ia (Nvspace.x2p m.Machine.nvspace v));
  check "null p2x" 0 (Nvspace.p2x m.Machine.nvspace Vaddr.null :> int);
  check "null x2p" 0 (ia (Nvspace.x2p m.Machine.nvspace Kinds.Riv.null))

let test_nvspace_unknown_region () =
  let _, m, _ = with_region ~seed:3 () in
  check_bool "unknown rid" true
    (try
       ignore (Nvspace.id2addr m.Machine.nvspace (ri 999));
       false
     with Nvspace.Unknown_region _ -> true);
  check_bool "non-data addr" true
    (try
       ignore (Nvspace.addr2id m.Machine.nvspace (va 0x10000));
       false
     with Nvspace.Not_nv_data _ -> true)

let test_nvspace_unregister () =
  let _, m, r = with_region ~seed:4 () in
  let rid = Region.rid r in
  Machine.close_region m rid;
  check_bool "closed region unknown" true
    (try
       ignore (Nvspace.id2addr m.Machine.nvspace rid);
       false
     with Nvspace.Unknown_region _ -> true)

(* Every reopen at a fresh segment writes a RID-table entry on a page
   of its own; unregistering must release that page again, so memory
   stays at the pages live regions use however often they move. *)
let test_nvspace_reopens_keep_pages_flat () =
  let _, m = machine ~seed:6 () in
  let rids = List.init 2 (fun _ -> Machine.create_region m ~size:8192) in
  let reopen_all () =
    List.iter
      (fun rid ->
        Machine.close_region m rid;
        ignore (Machine.open_region m rid))
      rids
  in
  List.iter (fun rid -> ignore (Machine.open_region m rid)) rids;
  reopen_all ();
  let pages () = Memsim.pages m.Machine.mem in
  let p0 = pages () in
  for _ = 1 to 1000 do
    reopen_all ()
  done;
  check "page count after 2000 reopens" p0 (pages ())

let test_nvspace_multi_region () =
  let _, m = machine ~seed:5 () in
  let regions =
    List.init 10 (fun _ ->
        let rid = Machine.create_region m ~size:65536 in
        Machine.open_region m rid)
  in
  List.iter
    (fun r ->
      check "each id resolves" (ia (Region.base r))
        (ia (Nvspace.id2addr m.Machine.nvspace (Region.rid r)));
      check "each base resolves" (ir (Region.rid r))
        (ir (Nvspace.addr2id m.Machine.nvspace (Vaddr.add (Region.base r) 8000))))
    regions

(* Fat table *)

let test_fat_table_basic () =
  let _, m, r = with_region ~seed:6 () in
  check "lookup" (ia (Region.base r))
    (ia (Fat_table.lookup m.Machine.fat (Region.rid r)));
  check "rid_of_addr" (ir (Region.rid r))
    (ir (Fat_table.rid_of_addr m.Machine.fat (Vaddr.add (Region.base r) 512)));
  check_bool "unknown" true
    (try
       ignore (Fat_table.lookup m.Machine.fat (ri 777));
       false
     with Fat_table.Unknown_region _ -> true);
  check_bool "no region for addr" true
    (try
       ignore (Fat_table.rid_of_addr m.Machine.fat (va 0x40000));
       false
     with Fat_table.No_region_for_addr _ -> true)

let test_fat_table_many_regions () =
  let _, m = machine ~seed:7 () in
  let rs =
    List.init 20 (fun _ ->
        let rid = Machine.create_region m ~size:65536 in
        Machine.open_region m rid)
  in
  List.iter
    (fun r ->
      check "lookup" (ia (Region.base r))
        (ia (Fat_table.lookup m.Machine.fat (Region.rid r)));
      check "reverse" (ir (Region.rid r))
        (ir (Fat_table.rid_of_addr m.Machine.fat (Region.base r))))
    rs;
  (* Close half, the rest still resolves. *)
  List.iteri
    (fun i r -> if i mod 2 = 0 then Machine.close_region m (Region.rid r))
    rs;
  List.iteri
    (fun i r ->
      if i mod 2 = 1 then
        check "survivor" (ia (Region.base r))
          (ia (Fat_table.lookup m.Machine.fat (Region.rid r)))
      else
        check_bool "closed gone" true
          (try
             ignore (Fat_table.lookup m.Machine.fat (Region.rid r));
             false
           with Fat_table.Unknown_region _ -> true))
    rs

(* Pointer representations: store/load roundtrips *)

let all_reprs = Repr.all

let test_roundtrip_same_region () =
  List.iter
    (fun kind ->
      let _, m, r = with_region ~seed:8 () in
      if kind = Repr.Based then Machine.set_based_region m (Region.rid r);
      let (module P) = Repr.m kind in
      let holder = Region.alloc r P.slot_size in
      let target = Region.alloc r 64 in
      P.store m ~holder target;
      check (Repr.to_string kind ^ " roundtrip") (ia target)
        (ia (P.load m ~holder)))
    all_reprs

let test_null_roundtrip () =
  List.iter
    (fun kind ->
      let _, m, r = with_region ~seed:9 () in
      if kind = Repr.Based then Machine.set_based_region m (Region.rid r);
      let (module P) = Repr.m kind in
      let holder = Region.alloc r P.slot_size in
      P.store m ~holder Vaddr.null;
      check (Repr.to_string kind ^ " null") 0 (ia (P.load m ~holder)))
    all_reprs

let test_backward_pointer () =
  (* Off-holder must handle a target before the holder (negative diff). *)
  let _, m, r = with_region ~seed:10 () in
  let target = Region.alloc r 64 in
  let holder = Region.alloc r 8 in
  Core.Off_holder.store m ~holder target;
  check "backward off-holder" (ia target) (ia (Core.Off_holder.load m ~holder))

let test_cross_region_raises_for_intra_only () =
  let _, m = machine ~seed:11 () in
  let r1 = Machine.open_region m (Machine.create_region m ~size:65536) in
  let r2 = Machine.open_region m (Machine.create_region m ~size:65536) in
  Machine.set_based_region m (Region.rid r1);
  let holder = Region.alloc r1 8 in
  let target = Region.alloc r2 64 in
  List.iter
    (fun kind ->
      let (module P) = Repr.m kind in
      check_bool (Repr.to_string kind ^ " cross rejected") true
        (try
           P.store m ~holder target;
           false
         with Machine.Cross_region_store _ -> true))
    [ Repr.Off_holder; Repr.Based ]

let test_cross_region_works_for_riv_fat () =
  let _, m = machine ~seed:12 () in
  let r1 = Machine.open_region m (Machine.create_region m ~size:65536) in
  let r2 = Machine.open_region m (Machine.create_region m ~size:65536) in
  let target = Region.alloc r2 64 in
  List.iter
    (fun kind ->
      let (module P) = Repr.m kind in
      let holder = Region.alloc r1 P.slot_size in
      P.store m ~holder target;
      check (Repr.to_string kind ^ " cross") (ia target) (ia (P.load m ~holder)))
    [ Repr.Riv; Repr.Fat; Repr.Fat_cached; Repr.Packed_fat; Repr.Hw_oid ]

let test_based_requires_base () =
  let _, m, r = with_region ~seed:13 () in
  let holder = Region.alloc r 8 in
  check_bool "based without base fails" true
    (try
       ignore (Core.Based_ptr.load m ~holder);
       false
     with Failure _ -> true)

(* Swizzling slot conversions *)

let test_swizzle_slot_roundtrip () =
  let _, m, r = with_region ~seed:14 () in
  let holder = Region.alloc r 8 in
  let target = Region.alloc r 64 in
  Core.Swizzle.store_packed m ~holder target;
  (* Packed form is not an absolute address. *)
  check_bool "packed differs" true (Machine.load64 m holder <> ia target);
  check "swizzle returns target" (ia target)
    (ia (Core.Swizzle.swizzle_slot m ~holder));
  check "now absolute" (ia target) (Machine.load64 m holder);
  check "steady-state load" (ia target) (ia (Core.Swizzle.load m ~holder));
  check "unswizzle returns target" (ia target)
    (ia (Core.Swizzle.unswizzle_slot m ~holder));
  check_bool "packed again" true (Machine.load64 m holder <> ia target);
  (* Null slots pass through both directions. *)
  let nholder = Region.alloc r 8 in
  Core.Swizzle.store_packed m ~holder:nholder Vaddr.null;
  check "null swizzle" 0 (ia (Core.Swizzle.swizzle_slot m ~holder:nholder));
  check "null unswizzle" 0 (ia (Core.Swizzle.unswizzle_slot m ~holder:nholder))

(* Position independence across runs *)

let repr_survives kind =
  let store = Store.create () in
  (* Run 1. *)
  let m1 = Machine.create ~seed:100 ~store () in
  let rid = Machine.create_region m1 ~size:65536 in
  let r1 = Machine.open_region m1 rid in
  if kind = Repr.Based then Machine.set_based_region m1 rid;
  let (module P) = Repr.m kind in
  let holder = Region.alloc r1 P.slot_size in
  let target = Region.alloc r1 64 in
  Memsim.store64 m1.Machine.mem target 0xABCD;
  P.store m1 ~holder target;
  Region.set_root r1 "holder" holder;
  Region.set_root r1 "target" target;
  let base1 = Region.base r1 in
  Machine.close_region m1 rid;
  (* Run 2: different placement. *)
  let m2 = Machine.create ~seed:200 ~store () in
  let r2 = Machine.open_region m2 rid in
  if kind = Repr.Based then Machine.set_based_region m2 rid;
  assert (not (Vaddr.equal (Region.base r2) base1));
  let holder' = Option.get (Region.root r2 "holder") in
  let target' = Option.get (Region.root r2 "target") in
  match P.load m2 ~holder:holder' with
  | loaded ->
      Vaddr.equal loaded target'
      && Memsim.load64 m2.Machine.mem target' = 0xABCD
  | exception Memsim.Fault _ -> false

let test_position_independent_reprs_survive_remap () =
  List.iter
    (fun kind ->
      check_bool (Repr.to_string kind ^ " survives remap") true
        (repr_survives kind))
    [ Repr.Off_holder; Repr.Riv; Repr.Fat; Repr.Fat_cached; Repr.Based;
      Repr.Packed_fat; Repr.Hw_oid ]

let test_normal_pointer_breaks_on_remap () =
  check_bool "normal pointer dangles" false (repr_survives Repr.Normal)

let test_swizzle_survives_via_passes () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:101 ~store () in
  let rid = Machine.create_region m1 ~size:65536 in
  let r1 = Machine.open_region m1 rid in
  let holder = Region.alloc r1 8 in
  let target = Region.alloc r1 64 in
  Core.Swizzle.store_packed m1 ~holder target;
  Region.set_root r1 "holder" holder;
  Region.set_root r1 "target" target;
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:202 ~store () in
  let r2 = Machine.open_region m2 rid in
  let holder' = Option.get (Region.root r2 "holder") in
  let target' = Option.get (Region.root r2 "target") in
  check "swizzle pass resolves new target" (ia target')
    (ia (Core.Swizzle.swizzle_slot m2 ~holder:holder'));
  check "steady state" (ia target') (ia (Core.Swizzle.load m2 ~holder:holder'))

(* The cross-region audit: every representation either crosses regions
   and round-trips, or rejects the store with the one sanctioned
   exception — [Machine.Cross_region_store], carrying the offending
   addresses and the repr's name, raised before any cycle is charged.
   The registry flag is the single source of truth for which side each
   repr falls on. *)

let test_cross_region_audit_all_reprs () =
  List.iter
    (fun kind ->
      let _, m = machine ~seed:41 () in
      let r1 = Machine.open_region m (Machine.create_region m ~size:65536) in
      let r2 = Machine.open_region m (Machine.create_region m ~size:65536) in
      if kind = Repr.Based then Machine.set_based_region m (Region.rid r1);
      let (module P) = Repr.m kind in
      let name = Repr.to_string kind in
      let holder = Region.alloc r1 P.slot_size in
      let target = Region.alloc r2 64 in
      P.store m ~holder Vaddr.null;
      if Repr.cross_region kind then begin
        P.store m ~holder target;
        check (name ^ " crosses regions") (ia target) (ia (P.load m ~holder))
      end
      else begin
        let c0 = Machine.cycles m in
        check_bool (name ^ " raises the sanctioned exception") true
          (try
             P.store m ~holder target;
             false
           with Machine.Cross_region_store { holder = h; target = t; repr } ->
             Vaddr.equal h holder && Vaddr.equal t target
             && repr = P.name);
        check (name ^ " charges no cycles for the rejected store")
          c0 (Machine.cycles m);
        check (name ^ " leaves the slot untouched") 0 (ia (P.load m ~holder))
      end)
    all_reprs

(* Machine.remap_region: close + reopen at a guaranteed-fresh base,
   within one run — the move every conformance trace leans on. *)

let test_remap_region_moves_and_preserves () =
  let _, m, r = with_region ~seed:42 ~size:65536 () in
  let rid = Region.rid r in
  let target = Region.alloc r 64 in
  let holder = Region.alloc r 8 in
  Core.Off_holder.store m ~holder target;
  Region.set_root r "t" target;
  let t_off = Region.offset_of_addr r target in
  let h_off = Region.offset_of_addr r holder in
  let base0 = Region.base r in
  let r' = Machine.remap_region m rid in
  check_bool "base moved" true (ia (Region.base r') <> ia base0);
  let target' = Region.addr_of_offset r' t_off in
  check "named root retargeted" (ia target')
    (ia (Option.get (Region.root r' "t")));
  check "off-holder slot survives in place" (ia target')
    (ia (Core.Off_holder.load m ~holder:(Region.addr_of_offset r' h_off)))

let test_remap_region_requires_open () =
  let _, m = machine ~seed:43 () in
  let rid = Machine.create_region m ~size:65536 in
  check_bool "remap of a closed region rejected" true
    (try
       ignore (Machine.remap_region m rid);
       false
     with Invalid_argument _ -> true)

let test_remap_region_retargets_based_base () =
  let _, m, r = with_region ~seed:44 ~size:65536 () in
  let rid = Region.rid r in
  Machine.set_based_region m rid;
  let target = Region.alloc r 64 in
  let holder = Region.alloc r 8 in
  Core.Based_ptr.store m ~holder target;
  let t_off = Region.offset_of_addr r target in
  let h_off = Region.offset_of_addr r holder in
  let r' = Machine.remap_region m rid in
  check "based pointer follows its base register"
    (ia (Region.addr_of_offset r' t_off))
    (ia (Core.Based_ptr.load m ~holder:(Region.addr_of_offset r' h_off)))

let test_remap_region_invalidates_fat_cache () =
  (* Regression the conformance harness flushed out: lastID/lastAddr
     used to survive close_region, so a fat-cached load after a
     same-run remap resolved at the vacated base. *)
  let _, m, r = with_region ~seed:45 ~size:65536 () in
  let rid = Region.rid r in
  let target = Region.alloc r 64 in
  let holder = Region.alloc r Core.Fat_cached.slot_size in
  Core.Fat_cached.store m ~holder target;
  check "cache primed at the old base" (ia target)
    (ia (Core.Fat_cached.load m ~holder));
  let t_off = Region.offset_of_addr r target in
  let h_off = Region.offset_of_addr r holder in
  let r' = Machine.remap_region m rid in
  check "load resolves at the new base"
    (ia (Region.addr_of_offset r' t_off))
    (ia (Core.Fat_cached.load m ~holder:(Region.addr_of_offset r' h_off)))

(* The swizzle window (Section 5): remaps are safe exactly when
   bracketed by unswizzle-before / swizzle-after passes. *)

let test_swizzle_window_roundtrips_back_to_back () =
  let _, m, r = with_region ~seed:46 ~size:65536 () in
  let rid = Region.rid r in
  let target = Region.alloc r 64 in
  let holder = Region.alloc r 8 in
  Core.Swizzle.store_packed m ~holder target;
  ignore (Core.Swizzle.swizzle_slot m ~holder);
  let t_off = Region.offset_of_addr r target in
  let h_off = Region.offset_of_addr r holder in
  let remap_in_window r =
    ignore
      (Core.Swizzle.unswizzle_slot m ~holder:(Region.addr_of_offset r h_off));
    let r' = Machine.remap_region m rid in
    ignore
      (Core.Swizzle.swizzle_slot m ~holder:(Region.addr_of_offset r' h_off));
    r'
  in
  let r1 = remap_in_window r in
  check "survives the first bracketed remap"
    (ia (Region.addr_of_offset r1 t_off))
    (ia (Core.Swizzle.load m ~holder:(Region.addr_of_offset r1 h_off)));
  let r2 = remap_in_window r1 in
  check "and a second one back-to-back"
    (ia (Region.addr_of_offset r2 t_off))
    (ia (Core.Swizzle.load m ~holder:(Region.addr_of_offset r2 h_off)))

let test_swizzle_outside_window_dangles () =
  (* The documented failure mode: move the region while a slot is still
     swizzled (absolute form at rest) and it dangles exactly like a
     normal pointer — the old absolute address, not the moved target. *)
  let _, m, r = with_region ~seed:47 ~size:65536 () in
  let rid = Region.rid r in
  let target = Region.alloc r 64 in
  let holder = Region.alloc r 8 in
  Core.Swizzle.store_packed m ~holder target;
  ignore (Core.Swizzle.swizzle_slot m ~holder);
  let t_off = Region.offset_of_addr r target in
  let h_off = Region.offset_of_addr r holder in
  let r' = Machine.remap_region m rid in
  let stale = Core.Swizzle.load m ~holder:(Region.addr_of_offset r' h_off) in
  check "slot still holds the vacated address" (ia target) (ia stale);
  check_bool "which misses the moved target" true
    (ia stale <> ia (Region.addr_of_offset r' t_off))

(* The Mnemosyne alternative (related work): pinning a region to the
   same virtual address in every run makes even normal pointers survive —
   but only while the address is free, which is exactly the paper's
   argument against it. *)

let test_pinned_mapping_mnemosyne_style () =
  let store = Store.create () in
  let nb = Layout.data_nvbase_min Layout.default + 42 in
  let m1 = Machine.create ~seed:300 ~store () in
  let rid = Machine.create_region m1 ~size:65536 in
  let r1 = Machine.open_region ~at_nvbase:(Kinds.Seg.v nb) m1 rid in
  let holder = Region.alloc r1 8 in
  let target = Region.alloc r1 8 in
  Memsim.store64 m1.Machine.mem target 1234;
  Core.Normal_ptr.store m1 ~holder target;
  Region.set_root r1 "h" holder;
  Machine.close_region m1 rid;
  (* Run 2 pins the same segment: normal pointers keep working. *)
  let m2 = Machine.create ~seed:301 ~store () in
  let r2 = Machine.open_region ~at_nvbase:(Kinds.Seg.v nb) m2 rid in
  let holder' = Option.get (Region.root r2 "h") in
  check "pinned mapping keeps normal pointers alive" 1234
    (Memsim.load64 m2.Machine.mem (Core.Normal_ptr.load m2 ~holder:holder'));
  (* ...but the scheme collapses when the address is already taken. *)
  let m3 = Machine.create ~seed:302 ~store () in
  let other = Machine.create_region m3 ~size:65536 in
  let _ = Machine.open_region ~at_nvbase:(Kinds.Seg.v nb) m3 other in
  check_bool "pinned address already occupied" true
    (try
       ignore (Machine.open_region ~at_nvbase:(Kinds.Seg.v nb) m3 rid);
       false
     with Invalid_argument _ -> true)

(* Section 5 / Figure 11: the based-pointer usability pitfall. A based
   pointer is meaningless without its base variable; decode it against
   the wrong base and it silently resolves to the wrong object. The
   self-contained representations cannot be misused this way. *)

let test_based_wrong_base_misresolves () =
  let _, m = machine ~seed:320 () in
  let r1 = Machine.open_region m (Machine.create_region m ~size:65536) in
  let r2 = Machine.open_region m (Machine.create_region m ~size:65536) in
  Machine.set_based_region m (Region.rid r1);
  let holder = Region.alloc r1 8 in
  let target = Region.alloc r1 8 in
  Memsim.store64 m.Machine.mem target 111;
  Core.Based_ptr.store m ~holder target;
  (* "Passing the pointer without its base": rebinding the base variable
     changes what the same slot resolves to. *)
  Machine.set_based_region m (Region.rid r2);
  let wrong = Core.Based_ptr.load m ~holder in
  check_bool "resolves into the wrong region" true (Region.contains r2 wrong);
  check_bool "silently wrong, not faulting" true
    (not (Vaddr.equal wrong target));
  (* Restoring the right base restores correctness — the caller must
     carry the base around, which is Figure 11's point. *)
  Machine.set_based_region m (Region.rid r1);
  check "correct with the right base" (ia target)
    (ia (Core.Based_ptr.load m ~holder));
  (* The same slot under off-holder needs no external state at all. *)
  let holder2 = Region.alloc r1 8 in
  Core.Off_holder.store m ~holder:holder2 target;
  Machine.set_based_region m (Region.rid r2);
  check "off-holder immune to base rebinding" (ia target)
    (ia (Core.Off_holder.load m ~holder:holder2))

(* Section 4.4 migration: growing a full region and remapping it. *)

let test_migrate_region_grows_and_survives () =
  let store = Store.create () in
  let m = Machine.create ~seed:310 ~store () in
  let rid = Machine.create_region m ~size:16384 in
  let r = Machine.open_region m rid in
  (* Build an off-holder chain until the region fills up. *)
  let module L = Nvmpi_structures.Linked_list.Make (Core.Off_holder) in
  let nd =
    Nvmpi_structures.Node.make m
      ~mode:(Nvmpi_structures.Node.Plain [| r |])
      ~payload:64
  in
  let l = L.create nd ~name:"chain" in
  let inserted = ref 0 in
  (try
     while true do
       L.append l ~key:!inserted;
       incr inserted
     done
   with Region.Out_of_region_memory _ -> ());
  check_bool "region filled" true (!inserted > 10);
  (* Migrate to a 4x larger region; the structure must survive and keep
     growing. *)
  let r2 = Machine.migrate_region m rid ~size:65536 in
  check "same rid" (ir rid) (ir (Region.rid r2));
  check_bool "moved" true
    (not (Vaddr.equal (Region.base r2) (Region.base r)));
  let nd2 =
    Nvmpi_structures.Node.make m
      ~mode:(Nvmpi_structures.Node.Plain [| r2 |])
      ~payload:64
  in
  let l2 = L.attach nd2 ~name:"chain" in
  check "chain intact after migration" !inserted (L.length l2);
  for k = 0 to 99 do
    L.append l2 ~key:(100000 + k)
  done;
  check "chain keeps growing" (!inserted + 100) (L.length l2);
  (* Growing to a smaller size is rejected. *)
  check_bool "shrink rejected" true
    (try
       ignore (Machine.migrate_region m rid ~size:1024);
       false
     with Invalid_argument _ -> true)

(* Cost-profile sanity: cheap things cheaper than expensive things. *)

let warm_load_cycles kind =
  let _, m, r = with_region ~seed:15 () in
  if kind = Repr.Based then Machine.set_based_region m (Region.rid r);
  let (module P) = Repr.m kind in
  let holder = Region.alloc r P.slot_size in
  let target = Region.alloc r 64 in
  P.store m ~holder target;
  for _ = 1 to 3 do
    ignore (P.load m ~holder)
  done;
  let (), d =
    Clock.delta m.Machine.clock (fun () -> ignore (P.load m ~holder))
  in
  d

let test_cost_ordering () =
  let normal = warm_load_cycles Repr.Normal in
  let based = warm_load_cycles Repr.Based in
  let offh = warm_load_cycles Repr.Off_holder in
  let riv = warm_load_cycles Repr.Riv in
  let fat = warm_load_cycles Repr.Fat in
  check_bool "normal <= based" true (normal <= based);
  check_bool "based <= off-holder" true (based <= offh);
  check_bool "off-holder < riv" true (offh < riv);
  check_bool "riv < fat" true (riv < fat)

let test_riv_phase_breakdown_counts () =
  let _, m, r = with_region ~seed:16 () in
  Nvspace.reset_phases m.Machine.nvspace;
  let holder = Region.alloc r 8 in
  let target = Region.alloc r 64 in
  Core.Riv.store m ~holder target;
  for _ = 1 to 10 do
    ignore (Core.Riv.load m ~holder)
  done;
  let p = Nvspace.phases m.Machine.nvspace in
  check_bool "extract phase counted" true (p.Nvspace.extract_cycles > 0);
  check_bool "id2addr phase counted" true (p.Nvspace.id2addr_cycles > 0);
  check_bool "final phase counted" true (p.Nvspace.final_cycles > 0);
  check_bool "final dominates extract (memory access)" true
    (p.Nvspace.final_cycles > p.Nvspace.extract_cycles)

(* Machine odds and ends *)

let test_dram_alloc () =
  let _, m = machine ~seed:17 () in
  let a = Machine.dram_alloc m 100 in
  let b = Machine.dram_alloc m ~align:64 8 in
  check_bool "dram volatile" true (not (Machine.is_nvm m a));
  check_bool "ordered" true (ia b >= ia a + 100);
  check "alignment" 0 (ia b land 63)

let test_rid_of_addr_exn () =
  let _, m, r = with_region ~seed:18 () in
  check "found" (ir (Region.rid r))
    (ir (Machine.rid_of_addr_exn m (Vaddr.add (Region.base r) 64)));
  check_bool "not found" true
    (try
       ignore (Machine.rid_of_addr_exn m (va 0x40000));
       false
     with Invalid_argument _ -> true)

let test_repr_registry () =
  check "9 representations" 9 (List.length Repr.all);
  List.iter
    (fun k ->
      check_bool
        ("of_string . to_string " ^ Repr.to_string k)
        true
        (Repr.of_string (Repr.to_string k) = Some k))
    Repr.all;
  check_bool "riv is implicit self-contained" true
    (Repr.implicit_self_contained Repr.Riv);
  check_bool "off-holder is implicit self-contained" true
    (Repr.implicit_self_contained Repr.Off_holder);
  check_bool "fat is not (size)" false (Repr.implicit_self_contained Repr.Fat);
  check_bool "based is not (external base)" false
    (Repr.implicit_self_contained Repr.Based);
  check_bool "normal is not (not PI)" false
    (Repr.implicit_self_contained Repr.Normal);
  check "fat slot is 16" 16 (Repr.slot_size Repr.Fat);
  check "riv slot is 8" 8 (Repr.slot_size Repr.Riv)

(* One dereference on two fresh machines, one of them with an extra
   observer: memory charges its cache model before any observer runs,
   so the observer must change no value, cycle or counter. *)
let deref_world kind =
  let store = Store.create () in
  let metrics = Core.Metrics.create () in
  let m = Machine.create ~seed:11 ~metrics ~store () in
  let rid = Machine.create_region m ~size:(1 lsl 20) in
  let r = Machine.open_region m rid in
  if kind = Repr.Based then Machine.set_based_region m rid;
  let (module P : Core.Repr_sig.S) = Repr.m kind in
  let holder = Region.alloc r P.slot_size in
  let target = Region.alloc r 64 in
  Memsim.store64 m.Machine.mem target 0xBEEF;
  P.store m ~holder target;
  (m, metrics, fun () -> P.load m ~holder)

let test_observer_changes_no_charge () =
  let registry metrics =
    Core.Json.to_string (Core.Metrics.to_json metrics)
  in
  List.iter
    (fun kind ->
      let name = Repr.to_string kind in
      let ma, mea, load_a = deref_world kind in
      let va = Machine.load64 ma (load_a ()) in
      let mb, meb, load_b = deref_world kind in
      let seen = ref 0 in
      Memsim.add_observer mb.Machine.mem (fun ~write:_ ~addr:_ ~size:_ ->
          incr seen);
      let vb = Machine.load64 mb (load_b ()) in
      check_bool (name ^ " observer saw the deref") true (!seen > 0);
      check (name ^ " deref value") va vb;
      check (name ^ " deref cycles") (Machine.cycles ma) (Machine.cycles mb);
      Alcotest.(check string)
        (name ^ " deref counters") (registry mea) (registry meb))
    Repr.all

let test_fat_cache_effectiveness () =
  (* With one region, repeated fat-cached loads are much cheaper than
     uncached fat loads; the cache pays for itself. *)
  let _, m, r = with_region ~seed:21 () in
  let holder = Region.alloc r 16 in
  let target = Region.alloc r 64 in
  Core.Fat.store m ~holder target;
  let warm (load : Machine.t -> holder:Vaddr.t -> Vaddr.t) =
    for _ = 1 to 3 do
      ignore (load m ~holder)
    done;
    snd (Clock.delta m.Machine.clock (fun () -> ignore (load m ~holder)))
  in
  let fat = warm Core.Fat.load in
  let cached = warm Core.Fat_cached.load in
  check_bool "cache hit cheaper than hash lookup" true (cached < fat)

let test_deterministic_placement_with_seed () =
  let base_of seed =
    let store = Store.create () in
    let m = Machine.create ~seed ~store () in
    Region.base (Machine.open_region m (Machine.create_region m ~size:65536))
  in
  check "same seed, same placement" (ia (base_of 1234)) (ia (base_of 1234));
  check_bool "different seed, different placement" true
    (not (Vaddr.equal (base_of 1234) (base_of 4321)))

(* A machine costs what a run touches, not what it models: the default
   32 MiB 16-way L3 alone would take 1.5 Mi words as capacity-sized
   arrays. [Gc.allocated_bytes] is exact for a given build. *)
let test_create_allocation () =
  let store = Store.create () in
  let before = Gc.allocated_bytes () in
  ignore (Sys.opaque_identity (Machine.create ~seed:1 ~store ()));
  let words =
    int_of_float (Gc.allocated_bytes () -. before) / (Sys.word_size / 8)
  in
  check_bool
    (Printf.sprintf "create allocates %d words, fewer than 64 Ki" words)
    true (words < 65536)

let test_registry_flags_for_ablation_reprs () =
  check_bool "packed-fat is implicit self-contained (but slow)" true
    (Repr.implicit_self_contained Repr.Packed_fat);
  check_bool "hw-oid is implicit self-contained" true
    (Repr.implicit_self_contained Repr.Hw_oid);
  check_bool "swizzle is not (not PI in memory)" false
    (Repr.implicit_self_contained Repr.Swizzle);
  check_bool "hw-oid cheaper than riv" true
    (warm_load_cycles Repr.Hw_oid < warm_load_cycles Repr.Riv)

(* Property: random pointer graphs roundtrip under every PI representation. *)
let prop_random_pointer_graph =
  QCheck2.Test.make ~name:"random pointer graphs roundtrip" ~count:30
    QCheck2.Gen.(pair (int_range 2 40) (int_range 0 1000))
    (fun (n, seed) ->
      List.for_all
        (fun kind ->
          let _, m, r = with_region ~seed () in
          if kind = Repr.Based then Machine.set_based_region m (Region.rid r);
          let (module P) = Repr.m kind in
          let targets = Array.init n (fun _ -> Region.alloc r 32) in
          let holders = Array.init n (fun _ -> Region.alloc r P.slot_size) in
          let st = Random.State.make [| n; seed |] in
          let links = Array.init n (fun _ -> Random.State.int st n) in
          Array.iteri
            (fun i j -> P.store m ~holder:holders.(i) targets.(j))
            links;
          Array.for_all
            (fun i ->
              Vaddr.equal (P.load m ~holder:holders.(i)) targets.(links.(i)))
            (Array.init n Fun.id))
        [ Repr.Off_holder; Repr.Riv; Repr.Fat; Repr.Fat_cached; Repr.Based;
          Repr.Packed_fat; Repr.Hw_oid ])

let () =
  Alcotest.run "core"
    [
      ( "nvspace",
        [
          Alcotest.test_case "register + convert" `Quick
            test_nvspace_register_and_convert;
          Alcotest.test_case "x2p/p2x roundtrip" `Quick
            test_nvspace_x2p_p2x_roundtrip;
          Alcotest.test_case "unknown region" `Quick test_nvspace_unknown_region;
          Alcotest.test_case "unregister" `Quick test_nvspace_unregister;
          Alcotest.test_case "ten regions" `Quick test_nvspace_multi_region;
          Alcotest.test_case "reopens keep table pages flat" `Quick
            test_nvspace_reopens_keep_pages_flat;
        ] );
      ( "fat-table",
        [
          Alcotest.test_case "basic" `Quick test_fat_table_basic;
          Alcotest.test_case "many regions + close" `Quick
            test_fat_table_many_regions;
        ] );
      ( "representations",
        [
          Alcotest.test_case "roundtrip same region" `Quick
            test_roundtrip_same_region;
          Alcotest.test_case "null" `Quick test_null_roundtrip;
          Alcotest.test_case "backward pointer" `Quick test_backward_pointer;
          Alcotest.test_case "cross-region rejected (intra-only)" `Quick
            test_cross_region_raises_for_intra_only;
          Alcotest.test_case "cross-region works (riv/fat)" `Quick
            test_cross_region_works_for_riv_fat;
          Alcotest.test_case "cross-region audit (all nine)" `Quick
            test_cross_region_audit_all_reprs;
          Alcotest.test_case "based requires base" `Quick
            test_based_requires_base;
          Alcotest.test_case "swizzle slot conversions" `Quick
            test_swizzle_slot_roundtrip;
          Alcotest.test_case "registry" `Quick test_repr_registry;
          Alcotest.test_case "registry flags (ablation reprs)" `Quick
            test_registry_flags_for_ablation_reprs;
          Alcotest.test_case "fat cache effectiveness" `Quick
            test_fat_cache_effectiveness;
          Alcotest.test_case "an extra observer changes no charge" `Quick
            test_observer_changes_no_charge;
        ] );
      ( "position-independence",
        [
          Alcotest.test_case "PI reprs survive remap" `Quick
            test_position_independent_reprs_survive_remap;
          Alcotest.test_case "normal pointers dangle" `Quick
            test_normal_pointer_breaks_on_remap;
          Alcotest.test_case "swizzle survives via passes" `Quick
            test_swizzle_survives_via_passes;
          Alcotest.test_case "remap_region moves and preserves" `Quick
            test_remap_region_moves_and_preserves;
          Alcotest.test_case "remap_region requires an open region" `Quick
            test_remap_region_requires_open;
          Alcotest.test_case "remap_region retargets the base register"
            `Quick test_remap_region_retargets_based_base;
          Alcotest.test_case "remap_region invalidates the fat cache" `Quick
            test_remap_region_invalidates_fat_cache;
          Alcotest.test_case "swizzle window round-trips back-to-back" `Quick
            test_swizzle_window_roundtrips_back_to_back;
          Alcotest.test_case "swizzle outside the window dangles" `Quick
            test_swizzle_outside_window_dangles;
          Alcotest.test_case "pinned mapping (Mnemosyne-style)" `Quick
            test_pinned_mapping_mnemosyne_style;
          Alcotest.test_case "region migration (section 4.4)" `Quick
            test_migrate_region_grows_and_survives;
          Alcotest.test_case "based-pointer pitfall (figure 11)" `Quick
            test_based_wrong_base_misresolves;
        ] );
      ( "costs",
        [
          Alcotest.test_case "cost ordering" `Quick test_cost_ordering;
          Alcotest.test_case "riv phase breakdown" `Quick
            test_riv_phase_breakdown_counts;
        ] );
      ( "machine",
        [
          Alcotest.test_case "dram alloc" `Quick test_dram_alloc;
          Alcotest.test_case "rid_of_addr" `Quick test_rid_of_addr_exn;
          Alcotest.test_case "deterministic placement" `Quick
            test_deterministic_placement_with_seed;
          Alcotest.test_case "create allocation" `Quick test_create_allocation;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_pointer_graph ]);
    ]
