module Palloc = Nvmpi_palloc.Palloc
module Machine = Core.Machine
module Region = Core.Region
module Store = Core.Store
module Repr = Core.Repr
module Memsim = Core.Memsim
module Clock = Core.Clock
module Timing = Core.Timing
module Metrics = Core.Metrics
module Vaddr = Core.Kinds.Vaddr

(* Tests bless host integers at the Figure 8 trust boundary. *)
let va = Vaddr.v
let ia (a : Vaddr.t) = (a :> int)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A bare heap over raw simulated memory (no Machine): memsim charging
   a timing model, which also takes the clwb/fence traffic palloc
   issues. Memory and heap count into one registry. *)
let fresh ?(size = 256 * 1024) ?(base = 0x1000) () =
  let clock = Clock.create () in
  let timing = Timing.create ~clock ~is_nvm:(fun _ -> true) () in
  let metrics = Metrics.create () in
  let mem = Memsim.create ~metrics ~timing () in
  Memsim.map mem ~addr:(va base) ~size;
  let t =
    Palloc.init ~mem ~timing ~metrics ~lo:(va base) ~hi:(va (base + size))
  in
  (mem, timing, metrics, t)

let reattach mem timing metrics ~base ~size =
  Palloc.recover ~mem ~timing ~metrics ~lo:(va base) ~hi:(va (base + size))

(* {1 Small path} *)

let test_small_classes_route () =
  let _, _, _, t = fresh () in
  Array.iter
    (fun cs ->
      let a = Palloc.alloc t cs in
      check (Printf.sprintf "usable %d" cs) cs (Palloc.usable_size t a);
      let b = Palloc.alloc t (cs - 1) in
      check (Printf.sprintf "usable %d-1 rounds up" cs) cs
        (Palloc.usable_size t b);
      Palloc.check t)
    Palloc.class_sizes;
  (* One over a class boundary lands in the next class. *)
  let a = Palloc.alloc t 17 in
  check "17 -> 32" 32 (Palloc.usable_size t a);
  Palloc.check t

let test_small_reuse_lifo () =
  let _, _, _, t = fresh () in
  let a = Palloc.alloc t 64 in
  Palloc.free t a;
  let b = Palloc.alloc t 64 in
  check "freed small block reused" (ia a) (ia b);
  Palloc.check t

let test_slab_refill_carves_blocks () =
  let _, _, m, t = fresh () in
  (* Drain one slab's worth of a class: a second refill must happen. *)
  let snap = Metrics.snapshot m in
  let refills0 = try List.assoc "alloc.slab_refills" snap with Not_found -> 0 in
  let blocks = Array.init 200 (fun _ -> Palloc.alloc t 16) in
  Palloc.check t;
  let snap = Metrics.snapshot m in
  let refills1 = List.assoc "alloc.slab_refills" snap in
  check_bool "at least two slab refills" true (refills1 - refills0 >= 2);
  Array.iter (Palloc.free t) blocks;
  Palloc.check t

let test_double_free_small_detected () =
  let _, _, _, t = fresh () in
  let a = Palloc.alloc t 64 in
  Palloc.free t a;
  check_bool "double free raises" true
    (try
       Palloc.free t a;
       false
     with Palloc.Corrupted _ -> true)

(* {1 Large path} *)

let test_large_split_and_coalesce () =
  let _, _, _, t = fresh () in
  let blocks = Array.init 6 (fun _ -> Palloc.alloc t 8000) in
  Palloc.check t;
  let allocated0, _ = Palloc.block_count t in
  check "six live blocks" 6 allocated0;
  (* Free out of order: middle, neighbours — must coalesce. *)
  Palloc.free t blocks.(3);
  Palloc.check t;
  Palloc.free t blocks.(2);
  Palloc.check t;
  Palloc.free t blocks.(4);
  Palloc.check t;
  Palloc.free t blocks.(0);
  Palloc.free t blocks.(1);
  Palloc.free t blocks.(5);
  Palloc.check t;
  let allocated, free = Palloc.block_count t in
  check "all freed" 0 allocated;
  check "fully coalesced" 1 free

let test_double_free_large_detected () =
  let _, _, _, t = fresh () in
  let a = Palloc.alloc t 8000 in
  Palloc.free t a;
  check_bool "double free raises" true
    (try
       Palloc.free t a;
       false
     with Palloc.Corrupted _ -> true)

let test_out_of_memory () =
  let _, _, _, t = fresh ~size:4096 () in
  check_bool "oom raises with accounting" true
    (try
       for _ = 1 to 1024 do
         ignore (Palloc.alloc t 3000)
       done;
       false
     with Palloc.Out_of_memory { requested; free } ->
       requested > 0 && free >= 0)

let test_free_and_frag_accounting () =
  let _, _, m, t = fresh () in
  let f0 = Palloc.free_bytes t in
  let a = Palloc.alloc t 10000 in
  check_bool "large alloc shrinks free bytes" true (Palloc.free_bytes t < f0);
  let b = Palloc.alloc t 64 in
  (* The refill carved a slab: its other blocks are captive free bytes. *)
  let frag = Palloc.frag_bytes t in
  check_bool "slab leftovers are fragmentation" true (frag > 0);
  let snap = Metrics.snapshot m in
  check "frag gauge mirrors sweep" frag (List.assoc "alloc.frag_bytes" snap);
  Palloc.free t a;
  Palloc.free t b;
  (* The slab is not retired: its per-block state words stay as
     metadata overhead, so free bytes land just under the baseline. *)
  let f1 = Palloc.free_bytes t in
  check_bool "free bytes back modulo slab metadata" true
    (f1 <= f0 && f0 - f1 < 1024);
  let allocated, _ = Palloc.block_count t in
  check "nothing left allocated" 0 allocated;
  Palloc.check t

(* {1 Root cells} *)

let test_alloc_into_publishes_root () =
  let _, _, _, t = fresh () in
  let a = Palloc.alloc_into t ~root:3 100 in
  check "root holds payload offset" (ia a - 0x1000) (Palloc.root_get t 3);
  check_bool "occupied root rejected" true
    (try
       ignore (Palloc.alloc_into t ~root:3 100);
       false
     with Invalid_argument _ -> true);
  Palloc.free_from t ~root:3;
  check "root cleared" 0 (Palloc.root_get t 3);
  check_bool "empty root free raises" true
    (try
       Palloc.free_from t ~root:3;
       false
     with Palloc.Corrupted _ -> true);
  Palloc.check t

(* {1 Reattach / recover / position independence} *)

let test_attach_preserves_state () =
  let mem, timing, m, t = fresh () in
  let a = Palloc.alloc t 64 in
  let b = Palloc.alloc t 9000 in
  Palloc.free t a;
  Palloc.close t;
  let t' = reattach mem timing m ~base:0x1000 ~size:(256 * 1024) in
  Palloc.check t';
  check "a closed heap is not swept" 0
    (Metrics.get m "alloc.recovered_blocks");
  let c = Palloc.alloc t' 64 in
  check "clean attach reuses the freed small block" (ia a) (ia c);
  Palloc.free t' b;
  Palloc.free t' c;
  Palloc.check t'

let test_recover_on_clean_image () =
  (* Never closed: the lists were never made durable, so recover sweeps
     even though no operation was in flight. *)
  let mem, timing, m, t = fresh () in
  let a = Palloc.alloc t 64 in
  let b = Palloc.alloc t 9000 in
  Palloc.free t a;
  let before = Palloc.allocated_payloads t in
  let t' = reattach mem timing m ~base:0x1000 ~size:(256 * 1024) in
  Palloc.check t';
  check_bool "a never-closed image is swept" true
    (Metrics.get m "alloc.recovered_blocks" > 0);
  Alcotest.(check (list int))
    "recover preserves the allocated set" before
    (Palloc.allocated_payloads t');
  Palloc.free t' b;
  Palloc.check t'

let test_attach_after_move () =
  (* Format, allocate (both paths), copy the bytes elsewhere, attach at
     the new base: every offset must still make sense — the palloc twin
     of the Freelist remap test. *)
  let size = 64 * 1024 in
  let mem, timing, m, t = fresh ~size () in
  Memsim.map mem ~addr:(va 0x100000) ~size;
  let small = Palloc.alloc t 64 in
  let large = Palloc.alloc t 9000 in
  Memsim.store64 mem small 0xBEEF;
  Memsim.store64 mem large 0xCAFE;
  let gone = Palloc.alloc t 128 in
  Palloc.free t gone;
  Palloc.close t;
  let image = Memsim.blit_to_bytes mem ~addr:(va 0x1000) ~len:size in
  Memsim.blit_from_bytes mem ~addr:(va 0x100000) image;
  let t' = reattach mem timing m ~base:0x100000 ~size in
  Palloc.check t';
  check "the moved closed heap is not swept" 0
    (Metrics.get m "alloc.recovered_blocks");
  let move a = va (ia a - 0x1000 + 0x100000) in
  check "small payload moved intact" 0xBEEF (Memsim.load64 mem (move small));
  check "large payload moved intact" 0xCAFE (Memsim.load64 mem (move large));
  check "usable size survives the move" 64 (Palloc.usable_size t' (move small));
  Palloc.free t' (move small);
  Palloc.free t' (move large);
  Palloc.check t';
  let allocated, _ = Palloc.block_count t' in
  check "all freed after move" 0 allocated

(* Every representation's placement pattern: open a region under a
   seeded machine, format a palloc heap inside it, fill it through
   alloc_into roots, then move the region the way that representation
   would see it move (self-contained reprs ride Machine.remap_region to
   a guaranteed-fresh segment; normal/swizzle — pinned in the server
   for exactly this reason — close and reopen in place), after a clean
   close, re-attach and keep allocating. *)
let test_position_independence_all_reprs () =
  List.iteri
    (fun i kind ->
      let store = Store.create () in
      let m = Machine.create ~seed:(1000 + i) ~store () in
      let rid = Machine.create_region m ~size:(1 lsl 17) in
      let r = Machine.open_region m rid in
      let heap_bytes = 1 lsl 16 in
      let lo = Region.alloc r ~align:16 heap_bytes in
      let heap_off = Region.offset_of_addr r lo in
      let mem = m.Machine.mem and timing = m.Machine.timing in
      let metrics = Machine.metrics m in
      let hi = va (ia lo + heap_bytes) in
      let t = Palloc.init ~mem ~timing ~metrics ~lo ~hi in
      let sizes = [| 24; 4096; 9000; 120; 500 |] in
      Array.iteri
        (fun root n ->
          let a = Palloc.alloc_into t ~root n in
          Memsim.store64 mem a (0xA110C + root))
        sizes;
      Palloc.check t;
      Palloc.close t;
      let r' =
        if kind <> Repr.Normal then Machine.remap_region m rid
        else begin
          (* Pinned placement: survive close/reopen at the same base. *)
          let seg = Core.Kinds.seg_of_vaddr m.Machine.layout (Region.base r) in
          Machine.close_region m rid;
          Machine.open_region ~at_nvbase:seg m rid
        end
      in
      let lo' = Region.addr_of_offset r' heap_off in
      let hi' = va (ia lo' + heap_bytes) in
      check_bool
        (Printf.sprintf "%s: magic found at the new base" (Repr.to_string kind))
        true
        (Palloc.is_formatted mem ~lo:lo');
      let t' = Palloc.recover ~mem ~timing ~metrics ~lo:lo' ~hi:hi' in
      Palloc.check t';
      check
        (Printf.sprintf "%s: closed heap not swept" (Repr.to_string kind))
        0
        (Metrics.get metrics "alloc.recovered_blocks");
      Array.iteri
        (fun root n ->
          let p = Palloc.payload_of_offset t' (Palloc.root_get t' root) in
          check
            (Printf.sprintf "%s: root %d payload survived" (Repr.to_string kind) root)
            (0xA110C + root) (Memsim.load64 mem p);
          check_bool
            (Printf.sprintf "%s: root %d usable" (Repr.to_string kind) root)
            true
            (Palloc.usable_size t' p >= n))
        sizes;
      (* Keep allocating and churning at the new base. *)
      Palloc.free_from t' ~root:1;
      let a = Palloc.alloc t' 2000 in
      Palloc.free t' a;
      ignore (Palloc.alloc_into t' ~root:1 64);
      Palloc.check t')
    Repr.all

(* {1 Clean close} *)

(* Closes a heap, then counts the loads its reattach makes. *)
let reattach_loads mem timing m t =
  Palloc.close t;
  let before = Metrics.get m "mem.loads" in
  let t' = reattach mem timing m ~base:0x1000 ~size:(256 * 1024) in
  (t', Metrics.get m "mem.loads" - before)

let test_closed_reattach_constant () =
  let mem, timing, m, t = fresh () in
  let _, empty = reattach_loads mem timing m t in
  let mem, timing, m, t = fresh () in
  let small = Array.init 300 (fun i -> Palloc.alloc t (16 lsl (i mod 4))) in
  let large = Array.init 12 (fun _ -> Palloc.alloc t 5000) in
  Array.iteri (fun i a -> if i mod 2 = 0 then Palloc.free t a) small;
  Array.iteri (fun i a -> if i mod 2 = 0 then Palloc.free t a) large;
  let _, free_blocks = Palloc.block_count t in
  check_bool "hundreds of free blocks" true (free_blocks >= 200);
  let t', busy = reattach_loads mem timing m t in
  check "reattach loads do not grow with the heap" empty busy;
  Palloc.check t';
  check "no block swept" 0 (Metrics.get m "alloc.recovered_blocks")

let test_closed_reattach_gauge () =
  let mem, timing, m, t = fresh () in
  let blocks = Array.init 40 (fun i -> Palloc.alloc t (24 + (i * 7))) in
  Array.iteri (fun i a -> if i mod 3 = 0 then Palloc.free t a) blocks;
  let frag = Palloc.frag_bytes t in
  let t', _ = reattach_loads mem timing m t in
  check "frag restored" frag (Palloc.frag_bytes t');
  check "gauge equals frag_bytes" (Palloc.frag_bytes t')
    (Metrics.get m "alloc.frag_bytes");
  (* The restored count keeps tracking: one more small free. *)
  Palloc.free t' blocks.(1);
  check "gauge tracks after reattach" (Palloc.frag_bytes t')
    (Metrics.get m "alloc.frag_bytes")

let test_closed_handle_raises () =
  let _, _, _, t = fresh () in
  let a = Palloc.alloc t 64 in
  ignore (Palloc.alloc_into t ~root:0 64);
  Palloc.close t;
  let raises what f =
    check_bool what true (try f (); false with Invalid_argument _ -> true)
  in
  raises "alloc" (fun () -> ignore (Palloc.alloc t 64));
  raises "alloc_into" (fun () -> ignore (Palloc.alloc_into t ~root:1 64));
  raises "free" (fun () -> Palloc.free t a);
  raises "free_from" (fun () -> Palloc.free_from t ~root:0);
  raises "close" (fun () -> Palloc.close t)

let test_closed_reopen_then_crash_sweeps () =
  (* A closed heap reopened, used and never closed again is an ordinary
     unclosed image: the reopen disarmed the mark, so recover sweeps. *)
  let mem, timing, m, t = fresh () in
  let a = Palloc.alloc t 64 in
  let t', _ = reattach_loads mem timing m t in
  Palloc.free t' a;
  let t'' = reattach mem timing m ~base:0x1000 ~size:(256 * 1024) in
  Palloc.check t'';
  check_bool "swept" true (Metrics.get m "alloc.recovered_blocks" > 0);
  check "nothing allocated" 0 (fst (Palloc.block_count t''))

(* {1 Randomized differential model}

   The pure reference: a list of (payload offset, usable size) for live
   blocks. Palloc must agree on the allocated set after every op, and
   [check] must hold throughout. *)
let prop_random_ops =
  QCheck.Test.make ~name:"palloc random alloc/free vs model" ~count:60
    QCheck.(
      pair (int_bound 0x3FFFFFF)
        (list_of_size Gen.(return 120) (int_range 1 9000)))
    (fun (seed, sizes) ->
      let rng = Random.State.make [| seed; 0x9A110C |] in
      let _, _, _, t = fresh ~size:(512 * 1024) () in
      let live = ref [] in
      List.iter
        (fun n ->
          (if Random.State.bool rng || !live = [] then (
             match Palloc.alloc t n with
             | a -> live := (ia a - 0x1000, Palloc.usable_size t a) :: !live
             | exception Palloc.Out_of_memory _ -> ())
           else
             let i = Random.State.int rng (List.length !live) in
             let off, _ = List.nth !live i in
             live := List.filteri (fun j _ -> j <> i) !live;
             Palloc.free t (va (0x1000 + off)));
          Palloc.check t;
          let expect = List.sort compare (List.map fst !live) in
          if Palloc.allocated_payloads t <> expect then
            QCheck.Test.fail_report "allocated set diverged from model")
        sizes;
      (* No two live blocks may share a byte. *)
      let sorted = List.sort compare !live in
      let rec no_overlap = function
        | (o1, s1) :: ((o2, _) :: _ as rest) ->
            o1 + s1 <= o2 && no_overlap rest
        | _ -> true
      in
      no_overlap sorted)

let () =
  Alcotest.run "palloc"
    [
      ( "small",
        [
          Alcotest.test_case "class routing" `Quick test_small_classes_route;
          Alcotest.test_case "LIFO reuse" `Quick test_small_reuse_lifo;
          Alcotest.test_case "slab refills" `Quick
            test_slab_refill_carves_blocks;
          Alcotest.test_case "double free detected" `Quick
            test_double_free_small_detected;
        ] );
      ( "large",
        [
          Alcotest.test_case "split and coalesce" `Quick
            test_large_split_and_coalesce;
          Alcotest.test_case "double free detected" `Quick
            test_double_free_large_detected;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "free/frag accounting" `Quick
            test_free_and_frag_accounting;
        ] );
      ( "roots",
        [
          Alcotest.test_case "alloc_into/free_from" `Quick
            test_alloc_into_publishes_root;
        ] );
      ( "position independence",
        [
          Alcotest.test_case "clean attach" `Quick test_attach_preserves_state;
          Alcotest.test_case "recover on clean image" `Quick
            test_recover_on_clean_image;
          Alcotest.test_case "reattach after move" `Quick test_attach_after_move;
          Alcotest.test_case "all nine representations" `Quick
            test_position_independence_all_reprs;
        ] );
      ( "clean close",
        [
          Alcotest.test_case "reattach loads independent of the heap" `Quick
            test_closed_reattach_constant;
          Alcotest.test_case "frag gauge restored" `Quick
            test_closed_reattach_gauge;
          Alcotest.test_case "closed handle raises" `Quick
            test_closed_handle_raises;
          Alcotest.test_case "reopened then unclosed heap is swept" `Quick
            test_closed_reopen_then_crash_sweeps;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_ops ]);
    ]
