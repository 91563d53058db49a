module Machine = Core.Machine
module Region = Core.Region
module Store = Core.Store
module Memsim = Core.Memsim
module Timing = Core.Timing
module Vaddr = Core.Kinds.Vaddr
module Metrics = Core.Metrics
module Objstore = Nvmpi_tx.Objstore
module Tx = Nvmpi_tx.Tx
module Page_image = Memsim.Page_image
open Nvmpi_faultsim

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let line = 64

let fresh_machine ?(seed = 1) () =
  let store = Store.create () in
  let m = Machine.create ~seed ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
  (m, r)

(* Durability state machine ------------------------------------------- *)

let snap_of b lo = Events.Flush { lo; snap = b }
let zero_image size = Page_image.create size

(* Byte [i] of the durable image. *)
let durable_byte img i =
  Char.code (Bytes.get (Page_image.to_bytes (Image.image img)) i)

let test_image_store_not_durable () =
  let img = Image.create ~base:0 ~line ~init:(zero_image 256) in
  Image.apply img (Events.Store { addr = 8; size = 8 });
  check "store alone leaves image untouched" 0
    (durable_byte img 8);
  check "dirty bytes are volatile" 8 (Image.volatile_bytes img);
  check "nothing durable yet" 0 (Image.durable_bytes img)

let test_image_flush_needs_fence () =
  let img = Image.create ~base:0 ~line ~init:(zero_image 256) in
  Image.apply img (Events.Store { addr = 0; size = 8 });
  Image.apply img (snap_of (Bytes.make line 'x') 0);
  check "flushed-not-fenced image untouched" 0
    (durable_byte img 0);
  check_bool "staged bytes still volatile" true (Image.volatile_bytes img > 0);
  Image.apply img Events.Fence;
  check "fence lands the line snapshot" (Char.code 'x')
    (durable_byte img 0);
  (* durable_bytes counts newly durable bytes — the 8 stored ones; the
     rest of the line was already durable from the init image. *)
  check "stored bytes are durable" 8 (Image.durable_bytes img);
  check "nothing volatile after fence" 0 (Image.volatile_bytes img)

let test_image_snapshot_semantics () =
  (* The fence persists the line contents at flush time, not the last
     store: a store after the flush stays volatile. *)
  let img = Image.create ~base:0 ~line ~init:(zero_image 256) in
  Image.apply img (Events.Store { addr = 0; size = 8 });
  Image.apply img (snap_of (Bytes.make line 'a') 0);
  Image.apply img (Events.Store { addr = 0; size = 8 });
  Image.apply img Events.Fence;
  check "post-flush store not included" (Char.code 'a')
    (durable_byte img 0);
  check_bool "post-flush store is volatile again" true
    (Image.volatile_bytes img > 0)

let test_image_pending_lines () =
  let img = Image.create ~base:0 ~line ~init:(zero_image 1024) in
  Image.apply img (Events.Store { addr = 10; size = 4 });
  Image.apply img (Events.Store { addr = 300; size = 4 });
  (match Image.pending_lines img with
  | [ 0; 256 ] -> ()
  | l ->
      Alcotest.failf "pending lines [%s]"
        (String.concat ";" (List.map string_of_int l)));
  Image.reset_volatile img;
  check "reset drops pending" 0 (List.length (Image.pending_lines img));
  check "reset keeps durable image size" 1024
    (Page_image.size (Image.image img))

let test_image_out_of_range_ignored () =
  let img =
    Image.create ~base:4096 ~line ~init:(zero_image 256)
  in
  Image.apply img (Events.Store { addr = 0; size = 8 });
  Image.apply img (snap_of (Bytes.make line 'z') 0);
  Image.apply img Events.Fence;
  check "events outside the region do nothing" 0 (Image.durable_bytes img);
  check "image unchanged" 0 (durable_byte img 0)

(* A random Store/Flush/Fence stream folded into [Image] leaves the
   durable image equal, at every point, to a flat-bytes reference in
   which a fence copies the newest unfenced snapshot of each line. The
   region is page-aligned but not a page (or line) multiple, starts from
   an image with zero and non-zero pages, and sees events outside it. *)
let prop_image_matches_flat_reference =
  let base = 4096 and size = (3 * 4096) + 200 in
  let lines = (size + line - 1) / line in
  let flat_bytes ~dense ~seed len =
    let st = Random.State.make [| seed |] in
    Bytes.init len (fun i ->
        if dense (i / 4096) && Random.State.int st 3 = 0 then
          Char.chr (Random.State.int st 256)
        else '\000')
  in
  let init =
    QCheck2.Gen.(
      map2
        (fun dense seed -> flat_bytes ~dense:(Array.get dense) ~seed size)
        (array_size (return 4) bool) int)
  in
  let event =
    QCheck2.Gen.(
      frequency
        [
          ( 3,
            map2
              (fun addr size -> Events.Store { addr; size })
              (int_range (base - 64) (base + size + 64))
              (oneofl [ 1; 2; 4; 8 ]) );
          ( 3,
            (* Lines -1 and [lines] lie outside the region; the tracker
               clips a flush of the region's last line to the region. *)
            map3
              (fun l dense seed ->
                let lo = base + (l * line) in
                let hi =
                  if l < 0 || l >= lines then lo + line
                  else min (lo + line) (base + size)
                in
                snap_of (flat_bytes ~dense:(fun _ -> dense) ~seed (hi - lo)) lo)
              (int_range (-1) lines) bool int );
          (1, return Events.Fence);
        ])
  in
  QCheck2.Test.make
    ~name:"durable image matches a flat reference at every point" ~count:200
    QCheck2.Gen.(pair init (list_size (int_range 0 150) event))
    (fun (init, events) ->
      let img = Image.create ~base ~line ~init:(Page_image.of_bytes init) in
      let reference = Bytes.copy init in
      let staged = Hashtbl.create 16 in
      List.for_all
        (fun e ->
          Image.apply img e;
          (match e with
          | Events.Store _ -> ()
          | Events.Flush { lo; snap } ->
              if lo < base + size && lo + Bytes.length snap > base then
                Hashtbl.replace staged lo snap
          | Events.Fence ->
              Hashtbl.iter
                (fun lo snap ->
                  Bytes.blit snap 0 reference (lo - base) (Bytes.length snap))
                staged;
              Hashtbl.reset staged);
          Bytes.equal (Page_image.to_bytes (Image.image img)) reference)
        events)

(* Tracker ------------------------------------------------------------- *)

let test_tracker_records_and_materializes () =
  let m, r = fresh_machine () in
  let a = Region.alloc r 64 in
  Machine.store64 m a 111;
  Timing.flush m.Machine.timing ~addr:(a :> int);
  Timing.fence m.Machine.timing;
  let tr = Tracker.attach m in
  Tracker.arm tr;
  check "log empty at arm" 0 (Tracker.seq tr);
  Machine.store64 m a 222;
  check_bool "store recorded" true (Tracker.seq tr > 0);
  (* Not flushed: the durable image still holds the pre-arm value. *)
  let img = Tracker.crash_image tr (Region.rid r) in
  check "durable image holds pre-crash value" 111
    (Page_image.get_int64_le img (Region.offset_of_addr r a) |> Int64.to_int);
  Tracker.checkpoint tr;
  let img = Tracker.crash_image tr (Region.rid r) in
  check "checkpoint makes the store durable" 222
    (Page_image.get_int64_le img (Region.offset_of_addr r a) |> Int64.to_int)

let test_tracker_crash_hook_reverts_memory () =
  let m, r = fresh_machine () in
  let a = Region.alloc r 64 in
  Machine.store64 m a 7;
  let tr = Tracker.attach m in
  Tracker.arm tr;
  Machine.store64 m a 8;
  check "live memory sees the new value" 8 (Machine.load64 m a);
  Tracker.apply_crash tr;
  check "crash reverts unflushed store" 7 (Machine.load64 m a);
  (* After the crash the dropped store is gone from the volatile sets
     too: a checkpoint immediately after must be a no-op. *)
  check "nothing volatile after crash" 0 (Tracker.volatile_bytes tr)

(* A page the region first touches after [arm] is absent from the
   durable image, so the crash must zero it in live memory. Live memory
   is memory's own pages and the pages of the open regions' images,
   which memory maps in place. *)
let test_crash_zeroes_page_touched_after_arm () =
  let m, r = fresh_machine () in
  let a = Region.addr_of_offset r (512 * 1024) in
  let tr = Tracker.attach m in
  Tracker.arm tr;
  let pages () =
    let mgr = m.Machine.manager in
    List.fold_left
      (fun n r ->
        let blob = Store.find_exn (Core.Manager.store mgr) (Region.rid r) in
        n + Page_image.present blob.Store.data)
      (Memsim.pages m.Machine.mem)
      (Core.Manager.open_regions mgr)
  in
  let p0 = pages () in
  Machine.store64 m a 77;
  check "the store materialized a page" (p0 + 1) (pages ());
  check "durable image holds the header page only" 1
    (Page_image.present (Tracker.crash_image tr (Region.rid r)));
  Tracker.apply_crash tr;
  check "crash zeroes the page" 0 (Machine.load64 m a)

let test_simulate_crash_with_tracker () =
  let m, r = fresh_machine () in
  let os = Objstore.create m r () in
  let cell = Objstore.alloc os ~size:8 () in
  let tx = Tx.create os in
  Tx.begin_tx tx;
  Tx.store64 tx cell 1;
  Tx.commit tx;
  let tr = Tracker.attach m in
  Tracker.arm tr;
  Tx.begin_tx tx;
  Tx.store64 tx cell 2;
  (* Power fails before commit: with a tracker attached, simulate_crash
     reverts memory to durable bytes (full cache loss), and the undo
     record persisted by store64 rolls the cell back on attach. *)
  Tx.simulate_crash tx;
  let os' = Objstore.attach m r in
  check "undo log drained by attach" 0 (Objstore.log_entries os');
  check "in-flight tx rolled back" 1 (Memsim.load64 m.Machine.mem cell)

let test_attached_unarmed_is_cycle_neutral () =
  let run ~with_tracker =
    let m, r = fresh_machine ~seed:3 () in
    if with_tracker then ignore (Tracker.attach m : Tracker.t);
    let a = Region.alloc r 256 in
    for i = 0 to 31 do
      Machine.store64 m (Vaddr.add a (8 * (i mod 8))) i
    done;
    Timing.flush m.Machine.timing ~addr:(a :> int);
    Timing.fence m.Machine.timing;
    for i = 0 to 31 do
      ignore (Machine.load64 m (Vaddr.add a (8 * (i mod 8))))
    done;
    Machine.cycles m
  in
  check "attached tracker leaves cycle accounting unchanged"
    (run ~with_tracker:false) (run ~with_tracker:true)

(* Replay -------------------------------------------------------------- *)

let test_replay_matches_tracker () =
  let m, r = fresh_machine () in
  let a = Region.alloc r 64 in
  let tr = Tracker.attach m in
  Tracker.arm tr;
  Machine.store64 m a 41;
  Tracker.checkpoint tr;
  Machine.store64 m a 42;
  let cur = Replay.create tr in
  Replay.advance cur ~upto:(Tracker.seq tr);
  let _, img = List.hd (Replay.images cur) in
  check "replayed image size" (Region.size r) (Page_image.size img);
  check "replay at log end equals live durable image" 41
    (Page_image.get_int64_le img (Region.offset_of_addr r a) |> Int64.to_int);
  Alcotest.check_raises "cursor cannot move backwards"
    (Invalid_argument "Replay.advance: cursor only moves forward") (fun () ->
      Replay.advance cur ~upto:0)

(* A booted machine maps copies of the replay's images in place, so
   storing into every page of every booted region must leave the
   replay's images as they were, and a later point's boot must equal one
   from a cursor that no machine ever booted from. *)
let test_recovery_never_writes_into_replay () =
  let m, r = fresh_machine () in
  let r2 = Machine.open_region m (Machine.create_region m ~size:5000) in
  let tr = Tracker.attach m in
  Tracker.arm tr;
  let a = Region.alloc r 64 and b = Region.addr_of_offset r (300 * 1024) in
  let c = Region.alloc r2 64 in
  Machine.store64 m a 41;
  Machine.store64 m c 43;
  Tracker.checkpoint tr;
  Machine.store64 m a 42;
  Machine.store64 m b 44;
  Tracker.checkpoint tr;
  Tracker.disarm tr;
  let flat images =
    List.map (fun (rid, img) -> (rid, Page_image.to_bytes img)) images
  in
  let booted ~seed images =
    let machine, regions = Recovery.boot ~seed images in
    ( machine,
      List.map
        (fun (rid, r) ->
          ( rid,
            Memsim.peek_bytes machine.Machine.mem ~addr:(Region.base r)
              ~len:(Region.size r) ))
        regions,
      regions )
  in
  let cursor = Replay.create tr and untouched = Replay.create tr in
  let mid = Tracker.seq tr / 2 in
  Replay.advance cursor ~upto:mid;
  let before = flat (Replay.images cursor) in
  let machine, _, regions = booted ~seed:1 (Replay.images cursor) in
  check "two regions booted" 2 (List.length regions);
  List.iter
    (fun (_, r) ->
      let page = Page_image.page_size in
      for p = 0 to (Region.size r - 1) / page do
        Memsim.store64 machine.Machine.mem (Region.addr_of_offset r (p * page))
          (-1)
      done)
    regions;
  check_bool "the replay's images are byte for byte as before" true
    (flat (Replay.images cursor) = before);
  let upto = Tracker.seq tr in
  Replay.advance cursor ~upto;
  Replay.advance untouched ~upto;
  let _, later, _ = booted ~seed:2 (Replay.images cursor) in
  let _, control, _ = booted ~seed:2 (Replay.images untouched) in
  check_bool "a later point boots as from an untouched cursor" true
    (later = control);
  check "the later point holds the last durable store" 44
    (Int64.to_int
       (Bytes.get_int64_le (List.assoc (Region.rid r) later) (300 * 1024)))

(* Sweep --------------------------------------------------------------- *)

let test_sweep_structure_clean () =
  let metrics = Metrics.create () in
  let r =
    Sweep.run_scenario ~metrics ~seed:11 ~mode:Sweep.Transitions
      (Scenario.structure_scenario ~keys:8 Nvmpi_experiments.Instance.List
         Core.Repr.Riv)
  in
  check_bool "at least the endpoints and one fence" true (r.Sweep.points >= 3);
  check "no violations on a correct structure" 0
    (List.length r.Sweep.failures);
  check_bool "scenario verdict ok" true (Sweep.scenario_ok r);
  check_bool "crash points counted" true
    (Metrics.get metrics "faultsim.crash_points" >= r.Sweep.points)

let test_sweep_catches_fence_dropper () =
  let metrics = Metrics.create () in
  let report =
    Sweep.run ~metrics ~seed:11 ~mode:Sweep.Exhaustive (Scenario.selftests ())
  in
  List.iter
    (fun r ->
      check_bool "double is marked expect_fail" true r.Sweep.expect_fail;
      check_bool "missing fences produce violations" true
        (r.Sweep.failures <> []);
      check_bool "inverted verdict passes" true (Sweep.scenario_ok r))
    report.Sweep.scenarios;
  check_bool "report ok (doubles caught)" true (Sweep.ok report)

let test_sweep_tx_atomicity_exhaustive () =
  let metrics = Metrics.create () in
  let r =
    Sweep.run_scenario ~metrics ~seed:19 ~mode:Sweep.Exhaustive
      (Scenario.tx_cells_scenario ~txs:3 ())
  in
  check "no torn transaction at any event index" 0
    (List.length r.Sweep.failures)

let test_swizzle_midwalk_crash_pinned () =
  (* Satellite: crash at every event of the save-time unswizzle walk
     (and the load-time swizzle walk). Inside the window the durable
     image holds absolute pointers and recovery at a fresh segment must
     detectably fail; outside it must recover exactly. The scenario
     oracle encodes both, so zero failures means both behaviours hold. *)
  let metrics = Metrics.create () in
  let r =
    Sweep.run_scenario ~metrics ~seed:23 ~mode:Sweep.Exhaustive
      (Scenario.swizzle_window_scenario ~keys:6 ())
  in
  check_bool "every unswizzle-walk event is a crash point" true
    (r.Sweep.points > 10);
  check "swizzle window behaviour pinned at every point" 0
    (List.length r.Sweep.failures)

let test_sweep_kv_exhaustive () =
  let metrics = Metrics.create () in
  let r =
    Sweep.run_scenario ~metrics ~seed:29 ~mode:Sweep.Exhaustive
      (Scenario.kv_scenario ~ops:5 Core.Repr.Off_holder)
  in
  check "kvstore read-your-writes holds at every point" 0
    (List.length r.Sweep.failures)

let test_sweep_alloc_exhaustive () =
  (* Satellite: crash at every persistence event of the palloc churn
     scenario. Recovery must always produce a heap whose walk passes and
     whose allocated set equals the rooted set — the allocator's no-leak
     / no-double-map invariants hold at every single crash point. *)
  let metrics = Metrics.create () in
  let r =
    Sweep.run_scenario ~metrics ~seed:31 ~mode:Sweep.Exhaustive
      (Scenario.alloc_scenario ~ops:8 ())
  in
  check_bool "allocator churn generates many crash points" true
    (r.Sweep.points > 50);
  check "allocator invariants hold at every crash point" 0
    (List.length r.Sweep.failures)

let test_sweep_alloc_leak_caught () =
  (* The leak double durably unroots a live block before freeing it; the
     sweep must observe the leak at some crash point, proving the oracle
     can actually see allocator bugs. *)
  let metrics = Metrics.create () in
  let r =
    Sweep.run_scenario ~metrics ~seed:31 ~mode:Sweep.Transitions
      (Scenario.alloc_leak_selftest ())
  in
  check_bool "double is marked expect_fail" true r.Sweep.expect_fail;
  check_bool "leak observed at some crash point" true (r.Sweep.failures <> []);
  check_bool "inverted verdict passes" true (Sweep.scenario_ok r)

let test_sweep_alloc_reopen_exhaustive () =
  (* Crash at every event of churn → clean close → reattach in place →
     churn: before the [closed] mark is durable recovery sweeps, after
     it recovery trusts the flushed lists, and both must pass. *)
  List.iter
    (fun seed ->
      let r =
        Sweep.run_scenario ~metrics:(Metrics.create ()) ~seed
          ~mode:Sweep.Exhaustive
          (Scenario.alloc_reopen_scenario ())
      in
      check_bool "close and reopen generate many crash points" true
        (r.Sweep.points > 100);
      if r.Sweep.failures <> [] then
        Alcotest.failf "seed %d: %d violations, first at %d: %s" seed
          (List.length r.Sweep.failures)
          (List.hd r.Sweep.failures).Sweep.seq
          (List.hd r.Sweep.failures).Sweep.detail)
    [ 1; 2; 3; 7; 11; 42; 99; 1625; 2024 ]

let test_sweep_alloc_close_double_caught () =
  (* A [closed] mark over unflushed lists must not pass for a clean
     close: the default plan catches the double at every seed. *)
  List.iter
    (fun seed ->
      let r =
        Sweep.run_scenario ~metrics:(Metrics.create ()) ~seed
          ~mode:Sweep.Transitions
          (Scenario.alloc_close_selftest ())
      in
      check_bool "double is marked expect_fail" true r.Sweep.expect_fail;
      if r.Sweep.failures = [] then
        Alcotest.failf "seed %d: unflushed close went uncaught" seed)
    [ 1; 2; 3; 7; 11; 42; 99; 1625; 2024 ]

let test_sweep_durable_sets_clean () =
  (* Link-and-persist hashset/bstree (docs/DURABLE.md): at every crash
     point the recovered set must equal the durable commit prefix of the
     op log, with the single in-flight op all-or-nothing. The recovery
     attach runs in traverse mode, so marked-link repair is exercised at
     the points that crash inside a modification window. *)
  let metrics = Metrics.create () in
  List.iter
    (fun (structure, repr) ->
      let r =
        Sweep.run_scenario ~metrics ~seed:37 ~mode:Sweep.Exhaustive
          (Scenario.durable_scenario ~ops:8 structure repr)
      in
      check_bool "durable churn generates many crash points" true
        (r.Sweep.points > 20);
      check "durable prefix holds at every crash point" 0
        (List.length r.Sweep.failures))
    [
      (Nvmpi_experiments.Instance.Hashset, Core.Repr.Riv);
      (Nvmpi_experiments.Instance.Btree, Core.Repr.Off_holder);
    ]

let test_sweep_durable_dropflush_caught () =
  (* The double suppresses every window flush/fence, so completed ops
     never become durable; the oracle must flag the loss somewhere. *)
  let metrics = Metrics.create () in
  let r =
    Sweep.run_scenario ~metrics ~seed:37 ~mode:Sweep.Transitions
      (Scenario.durable_scenario ~ops:8 ~drop_flushes:true
         Nvmpi_experiments.Instance.Hashset Core.Repr.Riv)
  in
  check_bool "double is marked expect_fail" true r.Sweep.expect_fail;
  check_bool "dropped windows observed at some crash point" true
    (r.Sweep.failures <> []);
  check_bool "inverted verdict passes" true (Sweep.scenario_ok r)

let test_default_plan_catches_doubles () =
  (* At this seed the drop-flush doubles record no fence, so a plan of
     fences and endpoints alone sees every op's effect only at the final
     point, where the toggles happen to net out to the arm-time set. *)
  let report =
    Sweep.run ~metrics:(Metrics.create ()) ~seed:1625 (Scenario.selftests ())
  in
  List.iter
    (fun r ->
      if r.Sweep.failures = [] then
        Alcotest.failf "%s went uncaught by the default plan" r.Sweep.name)
    report.Sweep.scenarios

let test_transitions_cover_every_point () =
  (* Soundness of the default plan, from recordings alone: every crash
     point p has a planned point q <= p with no fence among events
     q..p-1 (so the same durable image) and the same expected outcome,
     so a verdict at q stands for p. *)
  List.iter
    (fun seed ->
      List.iter
        (fun (sc : Scenario.t) ->
          let run = sc.run ~metrics:(Metrics.create ()) ~seed in
          Tracker.disarm run.tracker;
          let plan = ref (Sweep.crash_points Sweep.Transitions run) in
          (* Planned points with no fence between them and [p]. *)
          let since_fence = ref [] in
          for p = 0 to Tracker.seq run.tracker do
            (if p > 0 then
               match Tracker.event run.tracker (p - 1) with
               | Events.Fence -> since_fence := []
               | _ -> ());
            (match !plan with
            | q :: rest when q = p ->
                since_fence := q :: !since_fence;
                plan := rest
            | _ -> ());
            if
              not
                (List.exists
                   (fun q -> run.expect ~seq:q = run.expect ~seq:p)
                   !since_fence)
            then
              Alcotest.failf "%s at seed %d: no planned point stands for %d"
                sc.name seed p
          done)
        (Scenario.defaults () @ Scenario.selftests ()))
    [ 42; 1625 ]

let test_report_json_roundtrip () =
  let metrics = Metrics.create () in
  let report =
    Sweep.run ~metrics ~seed:11
      [ Scenario.structure_scenario ~keys:6 Nvmpi_experiments.Instance.List
          Core.Repr.Off_holder ]
  in
  let j = Sweep.json_of_report report in
  let open Core.Json in
  (match member "ok" j with
  | Some (Bool true) -> ()
  | _ -> Alcotest.fail "report json lacks ok=true");
  match member "scenarios" j with
  | Some (List [ _ ]) -> ()
  | _ -> Alcotest.fail "report json lacks the scenario entry"

let () =
  Alcotest.run "faultsim"
    [
      ( "image",
        [
          Alcotest.test_case "store alone is not durable" `Quick
            test_image_store_not_durable;
          Alcotest.test_case "flush needs a fence" `Quick
            test_image_flush_needs_fence;
          Alcotest.test_case "fences persist flush-time snapshots" `Quick
            test_image_snapshot_semantics;
          Alcotest.test_case "pending lines and reset" `Quick
            test_image_pending_lines;
          QCheck_alcotest.to_alcotest prop_image_matches_flat_reference;
          Alcotest.test_case "events outside the region ignored" `Quick
            test_image_out_of_range_ignored;
        ] );
      ( "tracker",
        [
          Alcotest.test_case "records and materializes durability" `Quick
            test_tracker_records_and_materializes;
          Alcotest.test_case "crash zeroes a page touched after arm" `Quick
            test_crash_zeroes_page_touched_after_arm;
          Alcotest.test_case "crash hook reverts live memory" `Quick
            test_tracker_crash_hook_reverts_memory;
          Alcotest.test_case "Tx.simulate_crash goes through the tracker"
            `Quick test_simulate_crash_with_tracker;
          Alcotest.test_case "attached-but-unarmed is cycle neutral" `Quick
            test_attached_unarmed_is_cycle_neutral;
        ] );
      ( "replay",
        [
          Alcotest.test_case "cursor reproduces the live durable image"
            `Quick test_replay_matches_tracker;
          Alcotest.test_case "recovery never writes into the replay" `Quick
            test_recovery_never_writes_into_replay;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean structure survives all points" `Quick
            test_sweep_structure_clean;
          Alcotest.test_case "fence-dropping double is caught" `Quick
            test_sweep_catches_fence_dropper;
          Alcotest.test_case "tx atomicity, exhaustive" `Quick
            test_sweep_tx_atomicity_exhaustive;
          Alcotest.test_case "swizzle mid-walk crash window" `Quick
            test_swizzle_midwalk_crash_pinned;
          Alcotest.test_case "kvstore exhaustive" `Quick
            test_sweep_kv_exhaustive;
          Alcotest.test_case "allocator exhaustive" `Quick
            test_sweep_alloc_exhaustive;
          Alcotest.test_case "allocator leak double caught" `Quick
            test_sweep_alloc_leak_caught;
          Alcotest.test_case "allocator close and reopen, exhaustive" `Quick
            test_sweep_alloc_reopen_exhaustive;
          Alcotest.test_case "allocator unflushed-close double caught" `Quick
            test_sweep_alloc_close_double_caught;
          Alcotest.test_case "durable sets exhaustive" `Quick
            test_sweep_durable_sets_clean;
          Alcotest.test_case "durable drop-flush double caught" `Quick
            test_sweep_durable_dropflush_caught;
          Alcotest.test_case "default plan catches every double at seed 1625"
            `Quick test_default_plan_catches_doubles;
          Alcotest.test_case "transitions plan covers every point" `Quick
            test_transitions_cover_every_point;
          Alcotest.test_case "json report" `Quick test_report_json_roundtrip;
        ] );
    ]
