module Machine = Core.Machine
module Repr = Core.Repr
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Memsim = Nvmpi_memsim.Memsim
module Metrics = Nvmpi_obs.Metrics
module Rid = Nvmpi_addr.Kinds.Rid
module Vaddr = Nvmpi_addr.Kinds.Vaddr
module Node = Nvmpi_structures.Node
module Instance = Nvmpi_experiments.Instance
module Workload = Nvmpi_experiments.Workload
module Palloc = Nvmpi_palloc.Palloc
module Timing = Nvmpi_cachesim.Timing
module Objstore = Nvmpi_tx.Objstore
module Tx = Nvmpi_tx.Tx
module Kvstore = Nvmpi_apps.Kvstore
module Durability = Core.Durability

type run = {
  tracker : Tracker.t;
  verify :
    seq:int ->
    Machine.t ->
    (Rid.t * Region.t) list ->
    (unit, string) result;
}

type t = {
  name : string;
  expect_fail : bool;
  run : metrics:Metrics.t -> seed:int -> run;
}

let region_size = 1 lsl 20
let payload = 32

let boot ?durability ?fault ~metrics ~seed () =
  let store = Store.create () in
  let machine = Machine.create ~metrics ~seed ?durability ?fault ~store () in
  let rid = Machine.create_region machine ~size:region_size in
  let region = Machine.open_region machine rid in
  (machine, rid, region)

let find_region rid regions =
  match List.assoc_opt rid regions with
  | Some r -> r
  | None -> failwith "recovered store lost the region"

(* {1 Plain-mode structures}

   The structure is built between checkpoints; the oracle is the state
   at the last checkpoint whose fence precedes the crash point — between
   fences the durable image cannot change, so recovery must reproduce
   that checkpoint exactly: node count, payload checksum, and membership
   of every key inserted so far (probed through the recovered pointers
   at the new segment). *)

type checkpointed = {
  upto : int; (* first crash point at which this state is durable *)
  count : int;
  checksum : int;
  present : int list;
}

let structure_scenario ?(keys = 12) ?(batch = 4) ?(fence = true)
    ?(pinned_dependent = false) structure repr =
  let name =
    let base =
      Printf.sprintf "%s/%s"
        (Instance.structure_name structure)
        (Repr.to_string repr)
    in
    if not fence then "selftest-nofence-" ^ base
    else if pinned_dependent then "pinned-dependent-" ^ base
    else "struct-" ^ base
  in
  let run ~metrics ~seed =
    let machine, rid, region = boot ~metrics ~seed () in
    if repr = Repr.Based then Machine.set_based_region machine rid;
    let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload in
    let root = "faultsim" in
    let inst = Instance.create structure repr node ~name:root in
    let ks = Workload.keys ~n:keys ~seed:(seed + 17) in
    (* The pinned scenario must have live pointers in the durable base
       image at arm time — an empty structure would (correctly) survive
       the remap, leaving nothing to pin. *)
    let pre =
      if pinned_dependent then
        Array.to_list (Workload.keys ~n:4 ~seed:(seed + 91))
      else []
    in
    List.iter inst.Instance.insert pre;
    let original_base = Region.base region in
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let cps = ref [] in
    let record present =
      let count, checksum = inst.Instance.traverse () in
      cps := { upto = Tracker.seq tracker; count; checksum; present } :: !cps
    in
    record pre;
    let inserted = ref pre in
    Array.iteri
      (fun i k ->
        inst.Instance.insert k;
        inserted := k :: !inserted;
        if (i + 1) mod batch = 0 || i = Array.length ks - 1 then begin
          Tracker.checkpoint ~fence tracker;
          record !inserted
        end)
      ks;
    let cps = List.rev !cps in
    let all_keys = Array.to_list ks @ pre in
    let absent_probe = List.fold_left max 0 all_keys + 1 in
    let check_against cp machine' region' =
      if repr = Repr.Based then
        Machine.set_based_region machine' (Region.rid region');
      let node' =
        Node.make machine' ~mode:(Node.Plain [| region' |]) ~payload
      in
      let inst' = Instance.attach structure repr node' ~name:root in
      let count, checksum = inst'.Instance.traverse () in
      if count <> cp.count then
        Error
          (Printf.sprintf "traverse visited %d nodes, durable state holds %d"
             count cp.count)
      else if checksum <> cp.checksum then
        Error
          (Printf.sprintf "traverse checksum 0x%x, durable state has 0x%x"
             checksum cp.checksum)
      else begin
        match
          List.find_opt
            (fun k -> inst'.Instance.search k <> List.mem k cp.present)
            all_keys
        with
        | Some k ->
            Error
              (Printf.sprintf "key %d %s after recovery" k
                 (if List.mem k cp.present then "missing" else "present"))
        | None ->
            if inst'.Instance.search absent_probe then
              Error
                (Printf.sprintf "never-inserted key %d found after recovery"
                   absent_probe)
            else Ok ()
      end
    in
    let verify ~seq machine' regions' =
      let region' = find_region rid regions' in
      let cp =
        List.fold_left
          (fun acc c -> if c.upto <= seq then c else acc)
          (List.hd cps) cps
      in
      if not pinned_dependent then check_against cp machine' region'
      else if Vaddr.equal (Region.base region') original_base then
        (* The random remap landed on the original segment: absolute
           pointers happen to be valid, nothing to pin. *)
        Ok ()
      else begin
        (* Pinned failure mode: the durable image carries absolute
           pointers from the previous mapping; after the remap the
           corruption must be observable. *)
        match check_against cp machine' region' with
        | Error _ | (exception _) -> Ok ()
        | Ok () ->
            Error
              "position-dependent image recovered cleanly after remap; \
               expected corruption went undetected"
      end
    in
    { tracker; verify }
  in
  { name; expect_fail = not fence; run }

(* {1 Kvstore over transactions}

   Each put/delete is one undo-logged transaction. At any crash point
   the recovered store must equal the map after all transactions whose
   commit is durable, except that the single in-flight transaction (if
   the crash lands inside its window) may be either fully absent or
   fully applied — never torn. *)

type kv_op = {
  before : int;
  after : int;
  apply : (int * string) list -> (int * string) list;
}

let model_put k v m = (k, v) :: List.remove_assoc k m
let model_del k m = List.remove_assoc k m
let canon m = List.sort compare m

let describe_map m =
  "{"
  ^ String.concat "; "
      (List.map (fun (k, v) -> Printf.sprintf "%d:%S" k v) m)
  ^ "}"

let kv_scenario ?(ops = 8) repr =
  let name = Printf.sprintf "kvstore/%s" (Repr.to_string repr) in
  let run ~metrics ~seed =
    let machine, rid, region = boot ~metrics ~seed () in
    if repr = Repr.Based then Machine.set_based_region machine rid;
    let os = Objstore.create machine region () in
    let kv = Kvstore.create os ~repr ~name:"kv" ~buckets:8 () in
    let initial = ref [] in
    for k = 1 to 3 do
      let v = Printf.sprintf "init-%d" k in
      Kvstore.put kv ~key:k v;
      initial := model_put k v !initial
    done;
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let log = ref [] in
    for i = 1 to ops do
      let key = (i mod 5) + 1 in
      let before = Tracker.seq tracker in
      let apply =
        if i mod 4 = 0 then begin
          ignore (Kvstore.delete kv ~key);
          model_del key
        end
        else begin
          let v = Printf.sprintf "v%d-%d" i key in
          Kvstore.put kv ~key v;
          model_put key v
        end
      in
      let after = Tracker.seq tracker in
      log := { before; after; apply } :: !log
    done;
    let log = List.rev !log in
    let universe = [ 1; 2; 3; 4; 5; 6 ] in
    let initial = !initial in
    let verify ~seq machine' regions' =
      let region' = find_region rid regions' in
      if repr = Repr.Based then
        Machine.set_based_region machine' (Region.rid region');
      let os' = Objstore.attach machine' region' in
      if Objstore.log_entries os' <> 0 then
        Error "undo log still has records after recovery"
      else begin
        let kv' = Kvstore.attach os' ~repr ~name:"kv" in
        let committed =
          List.fold_left
            (fun m op -> if op.after <= seq then op.apply m else m)
            initial log
        in
        let candidates =
          canon committed
          ::
          (match
             List.find_opt (fun op -> op.before < seq && seq < op.after) log
           with
          | Some op -> [ canon (op.apply committed) ]
          | None -> [])
        in
        let actual =
          List.filter_map
            (fun k ->
              match Kvstore.get kv' ~key:k with
              | Some v -> Some (k, v)
              | None -> None)
            universe
          |> canon
        in
        if List.mem actual candidates then Ok ()
        else
          Error
            (Printf.sprintf "read-your-writes: recovered %s, expected %s"
               (describe_map actual)
               (String.concat " or " (List.map describe_map candidates)))
      end
    in
    { tracker; verify }
  in
  { name; expect_fail = false; run }

(* {1 Raw object-store transactions}

   A bank-cell workload straight on Tx.store64: each transaction writes
   two of eight cells. Atomicity per transaction, checked against the
   durable commit prefix. *)

let tx_cells_scenario ?(txs = 6) () =
  let name = "objstore-tx-cells" in
  let run ~metrics ~seed =
    let machine, rid, region = boot ~metrics ~seed () in
    let os = Objstore.create machine region () in
    let cells = Objstore.alloc os ~tag:0xCE11 ~size:64 () in
    let mem = machine.Machine.mem in
    for i = 0 to 7 do
      Memsim.store64 mem (Vaddr.add cells (8 * i)) (100 + i)
    done;
    Region.set_root region "cells" cells;
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let tx = Tx.create os in
    let log = ref [] in
    for j = 1 to txs do
      let i1 = j mod 8 and i2 = (3 * j) mod 8 in
      let v1 = (j * 1000) + i1 and v2 = (j * 1000) + i2 + 7 in
      let before = Tracker.seq tracker in
      Tx.begin_tx tx;
      Tx.store64 tx (Vaddr.add cells (8 * i1)) v1;
      Tx.store64 tx (Vaddr.add cells (8 * i2)) v2;
      Tx.commit tx;
      let after = Tracker.seq tracker in
      log := (before, after, [ (i1, v1); (i2, v2) ]) :: !log
    done;
    let log = List.rev !log in
    let verify ~seq machine' regions' =
      let region' = find_region rid regions' in
      let os' = Objstore.attach machine' region' in
      if Objstore.log_entries os' <> 0 then
        Error "undo log still has records after recovery"
      else begin
        let cells' =
          match Region.root region' "cells" with
          | Some a -> a
          | None -> failwith "cells root lost"
        in
        let apply writes arr =
          List.iter (fun (i, v) -> arr.(i) <- v) writes
        in
        let committed = Array.init 8 (fun i -> 100 + i) in
        List.iter
          (fun (_, after, writes) ->
            if after <= seq then apply writes committed)
          log;
        let actual =
          Array.init 8 (fun i ->
              Memsim.load64 machine'.Machine.mem (Vaddr.add cells' (8 * i)))
        in
        let show a =
          String.concat "," (Array.to_list (Array.map string_of_int a))
        in
        if actual = committed then Ok ()
        else begin
          match
            List.find_opt (fun (b, a, _) -> b < seq && seq < a) log
          with
          | Some (_, _, writes)
            when actual
                 =
                 let v = Array.copy committed in
                 apply writes v;
                 v ->
              Ok ()
          | _ ->
              Error
                (Printf.sprintf "torn cells after recovery: [%s], expected [%s]"
                   (show actual) (show committed))
        end
      end
    in
    { tracker; verify }
  in
  { name; expect_fail = false; run }

(* {1 The swizzle window}

   Between the swizzle (load-time) and unswizzle (save-time) passes a
   swizzled structure is position dependent on NVM. A crash while the
   image is packed recovers; a crash after a persist of the swizzled
   form must observably fail after the remap — the pinned failure mode
   this scenario documents. *)

let swizzle_window_scenario ?(keys = 8) () =
  let name = "swizzle-unswizzle-window" in
  let run ~metrics ~seed =
    let machine, rid, region = boot ~metrics ~seed () in
    let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload in
    let root = "swz" in
    let inst = Instance.create Instance.List Repr.Swizzle node ~name:root in
    let ks = Workload.keys ~n:keys ~seed:(seed + 23) in
    Array.iter (fun k -> inst.Instance.insert k) ks;
    let expected = inst.Instance.traverse () in
    inst.Instance.unswizzle ();
    let original_base = Region.base region in
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    inst.Instance.swizzle ();
    Tracker.checkpoint tracker;
    (* The fence just issued persisted absolute pointers: every crash
       point from here until the post-unswizzle fence inherits them. *)
    let bad_from = Tracker.seq tracker in
    inst.Instance.unswizzle ();
    Tracker.checkpoint tracker;
    let good_from = Tracker.seq tracker in
    let verify ~seq machine' regions' =
      let region' = find_region rid regions' in
      let attempt =
        try
          let node' =
            Node.make machine' ~mode:(Node.Plain [| region' |]) ~payload
          in
          let inst' =
            Instance.attach Instance.List Repr.Swizzle node' ~name:root
          in
          inst'.Instance.swizzle ();
          Ok (inst'.Instance.traverse ())
        with e -> Error (Printexc.to_string e)
      in
      let in_window = seq >= bad_from && seq < good_from in
      if not in_window then begin
        match attempt with
        | Ok got when got = expected -> Ok ()
        | Ok (c, s) ->
            Error
              (Printf.sprintf
                 "packed image recovered to %d nodes (0x%x), expected %d \
                  (0x%x)"
                 c s (fst expected) (snd expected))
        | Error msg ->
            Error ("recovery failed outside the swizzled window: " ^ msg)
      end
      else if Vaddr.equal (Region.base region') original_base then Ok ()
      else begin
        match attempt with
        | Error _ -> Ok () (* dangling absolute pointer faulted: pinned *)
        | Ok got when got <> expected -> Ok () (* visible corruption *)
        | Ok _ ->
            Error
              "swizzled (position-dependent) image recovered cleanly after \
               remap; expected corruption went undetected"
      end
    in
    { tracker; verify }
  in
  { name; expect_fail = false; run }

(* {1 Allocator churn}

   Seeded alloc/free churn straight on a palloc heap carved from the
   boot region, every allocation published through a root cell. The
   oracle at every crash point, after [Palloc.recover]:

   - [Palloc.check]: the headers tile the heap (no byte owned by two
     blocks), no block is both free-listed and reachable, lists are
     exact;
   - the allocated set equals the root set: every non-empty root
     references a live block (nothing reachable is unbacked) and every
     live block is referenced by exactly one root (nothing leaked) —
     [alloc_into]/[free_from] promise exactly this atomicity. *)

let palloc_heap_off region =
  Nvmpi_addr.Bitops.align_up (Region.heap_top region) 16

let palloc_over machine region ~fresh =
  let heap_off = palloc_heap_off region in
  let lo = Region.addr_of_offset region heap_off in
  let hi = Vaddr.add (Region.base region) (Region.size region) in
  (if fresh then Palloc.init else Palloc.recover)
    ~mem:machine.Machine.mem ~timing:machine.Machine.timing
    ~metrics:(Machine.metrics machine) ~lo ~hi

let verify_palloc machine' region' =
  match palloc_over machine' region' ~fresh:false with
  | exception Palloc.Corrupted msg ->
      Error ("allocator recovery failed: " ^ msg)
  | t' -> (
      match Palloc.check t' with
      | exception Palloc.Corrupted msg ->
          Error ("allocator invariant violated: " ^ msg)
      | () ->
          let rooted =
            List.init Palloc.roots (fun i -> Palloc.root_get t' i)
            |> List.filter (fun p -> p <> 0)
            |> List.sort compare
          in
          let live = Palloc.allocated_payloads t' in
          if live = rooted then Ok ()
          else
            Error
              (Printf.sprintf
                 "allocator leak/double-map: %d live blocks vs %d rooted \
                  offsets"
                 (List.length live) (List.length rooted)))

let alloc_scenario ?(ops = 14) () =
  let name = "palloc-churn" in
  let run ~metrics ~seed =
    let machine, rid, region = boot ~metrics ~seed () in
    let t = palloc_over machine region ~fresh:true in
    (* A little pre-arm history so the churn frees real blocks. *)
    ignore (Palloc.alloc_into t ~root:0 24);
    ignore (Palloc.alloc_into t ~root:1 5000);
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let rng = Random.State.make [| seed; 0xA110C |] in
    let sizes = [| 16; 4000; 200; 9000; 24; 120; 4096; 48; 1500; 600 |] in
    for i = 1 to ops do
      let root = i mod 6 in
      if Palloc.root_get t root <> 0 then Palloc.free_from t ~root
      else
        ignore
          (Palloc.alloc_into t ~root
             sizes.(Random.State.int rng (Array.length sizes)))
    done;
    let verify ~seq:_ machine' regions' =
      verify_palloc machine' (find_region rid regions')
    in
    { tracker; verify }
  in
  { name; expect_fail = false; run }

(* Selftest double: clear a root cell durably {e before} freeing the
   block it referenced. Every crash point between those two fences has
   a live block no root references — a leak the sweep must call out. *)
let alloc_leak_selftest () =
  let name = "selftest-leak-palloc" in
  let run ~metrics ~seed =
    let machine, rid, region = boot ~metrics ~seed () in
    let t = palloc_over machine region ~fresh:true in
    let p = Palloc.alloc_into t ~root:2 160 in
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let timing = machine.Machine.timing in
    Memsim.store64 machine.Machine.mem (Palloc.root_addr t 2) 0;
    Timing.flush timing ~addr:((Palloc.root_addr t 2 :> int));
    Timing.fence timing;
    (* The block is now unreachable but still allocated: leaked. *)
    Palloc.free t p;
    let verify ~seq:_ machine' regions' =
      verify_palloc machine' (find_region rid regions')
    in
    { tracker; verify }
  in
  { name; expect_fail = true; run }

(* {1 Durable sets (link-and-persist)}

   Hashset/bstree under [Traverse] (docs/DURABLE.md): traversals
   flush nothing, each insert/remove persists exactly one modification
   window (fresh-node lines + one marked link flush + fence). The oracle
   at every crash point: the recovered set equals the durable commit
   prefix of the op log, except the single in-flight op may be either
   fully applied or fully absent — never torn. Count, checksum and
   per-key membership are all probed through a traverse-mode attach, so
   recovery also exercises the marked-link repair path (the final
   mark-clearing store is deliberately never flushed). *)

module Durable = Nvmpi_structures.Durable
module IntSet = Set.Make (Int)

type durable_op = {
  d_before : int;
  d_after : int;
  d_key : int;
  d_insert : bool;
}

let durable_structures = [ Instance.Hashset; Instance.Btree ]

let durable_scenario ?(ops = 14) ?(drop_flushes = false) structure repr =
  let name =
    let base =
      Printf.sprintf "durable-%s/%s"
        (Instance.structure_name structure)
        (Repr.to_string repr)
    in
    if drop_flushes then "selftest-dropflush-" ^ base else base
  in
  let run ~metrics ~seed =
    let fault =
      if drop_flushes then Some Durability.Drop_window_flushes else None
    in
    let machine, rid, region =
      boot ~durability:Durability.Traverse ?fault ~metrics ~seed ()
    in
    if repr = Repr.Based then Machine.set_based_region machine rid;
    let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload in
    let root = "durset" in
    let inst = Instance.create structure repr node ~name:root in
    (* A small key universe so removals keep biting; the pre-arm subset
       is durable via the tracker's attach-time baseline. *)
    let universe = Workload.keys ~n:9 ~seed:(seed + 29) in
    let model = ref IntSet.empty in
    Array.iteri
      (fun i k ->
        if i < 4 then begin
          inst.Instance.insert k;
          model := IntSet.add k !model
        end)
      universe;
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let initial = !model in
    let rng = Random.State.make [| seed; 0xD5E7 |] in
    let log = ref [] in
    for _ = 1 to ops do
      let k = universe.(Random.State.int rng (Array.length universe)) in
      let before = Tracker.seq tracker in
      let insert = not (IntSet.mem k !model) in
      if insert then inst.Instance.insert k else ignore (inst.Instance.remove k);
      model := (if insert then IntSet.add else IntSet.remove) k !model;
      let after = Tracker.seq tracker in
      log :=
        { d_before = before; d_after = after; d_key = k; d_insert = insert }
        :: !log
    done;
    let log = List.rev !log in
    let apply op set =
      (if op.d_insert then IntSet.add else IntSet.remove) op.d_key set
    in
    let expected_of set =
      ( IntSet.cardinal set,
        IntSet.fold
          (fun k acc -> acc + k + Node.payload_checksum ~payload ~seed:k)
          set 0 )
    in
    let describe set =
      "{"
      ^ String.concat ";" (List.map string_of_int (IntSet.elements set))
      ^ "}"
    in
    let verify ~seq machine' regions' =
      let region' = find_region rid regions' in
      if repr = Repr.Based then
        Machine.set_based_region machine' (Region.rid region');
      let node' =
        Node.make ~durability:Durability.Traverse machine'
          ~mode:(Node.Plain [| region' |]) ~payload
      in
      let inst' = Instance.attach structure repr node' ~name:root in
      let committed =
        List.fold_left
          (fun acc op -> if op.d_after <= seq then apply op acc else acc)
          initial log
      in
      let candidates =
        committed
        ::
        (match
           List.find_opt (fun op -> op.d_before < seq && seq < op.d_after) log
         with
        | Some op -> [ apply op committed ]
        | None -> [])
      in
      let count, checksum = inst'.Instance.traverse () in
      match
        List.find_opt (fun s -> expected_of s = (count, checksum)) candidates
      with
      | None ->
          Error
            (Printf.sprintf
               "recovered set has %d nodes (0x%x), expected %s — a completed \
                op was lost or a partial node is reachable"
               count checksum
               (String.concat " or " (List.map describe candidates)))
      | Some set -> (
          match
            Array.to_list universe
            |> List.find_opt (fun k ->
                   inst'.Instance.search k <> IntSet.mem k set)
          with
          | Some k ->
              Error
                (Printf.sprintf "key %d %s after recovery" k
                   (if IntSet.mem k set then "missing" else "present"))
          | None -> Ok ())
    in
    { tracker; verify }
  in
  { name; expect_fail = drop_flushes; run }

(* {1 Failure-atomic snapshots (FAMS/WAL)}

   Epochs of plain (un-instrumented) stores closed by [Snapshot.sync]
   (docs/SNAPSHOT.md). The oracle at every crash point: the recovered
   state — after [Snapshot.attach] replays any committed-but-untruncated
   log — equals the last epoch whose sync completed before the crash,
   except that the single in-flight sync may already be fully applied
   (its commit fence is the all-or-nothing pivot); never anything torn.
   Crash points land mid-log-append, post-commit pre-writeback and
   pre-truncate organically; one epoch runs [sync ~stop_after:`Commit]
   followed by an explicit [replay] so the replay path itself is part
   of the tracked event stream and gets mid-replay crash points. *)

module Snapshot = Nvmpi_snapshot.Snapshot

type snap_epoch = { s_before : int; s_after : int; s_cells : int array }

let snapshot_cells_scenario ?(epochs = 5) ?(cells = 16)
    ?(granularity = Snapshot.Line) ?(drop_writeback = false) () =
  let name =
    let base =
      Printf.sprintf "snapshot-cells/%s"
        (Snapshot.granularity_to_string granularity)
    in
    if drop_writeback then "selftest-snapshot-nowb-" ^ base else base
  in
  let run ~metrics ~seed =
    let fault =
      if drop_writeback then Some Durability.Drop_writeback else None
    in
    let machine, rid, region =
      boot ~durability:(Durability.Snapshot granularity) ?fault ~metrics ~seed ()
    in
    (* Cells at a 520-byte stride: one epoch's writes scatter over many
       lines and several pages, so a torn epoch is observable and the
       line-vs-page log shapes differ. *)
    let stride = 520 in
    let block = Region.alloc region (cells * stride) in
    Region.set_root region "snapcells" block;
    let cell i = Vaddr.add block (i * stride) in
    let mem = machine.Machine.mem in
    let model = Array.init cells (fun i -> 1000 + i) in
    Array.iteri (fun i v -> Memsim.store64 mem (cell i) v) model;
    let snap = Snapshot.create machine region () in
    Snapshot.sync snap;
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let log = ref [] in
    for e = 1 to epochs do
      let before = Tracker.seq tracker in
      for i = 0 to cells - 1 do
        if ((i * 7) + e) mod 3 <> 2 then begin
          model.(i) <- (e * 1000) + i;
          Memsim.store64 mem (cell i) model.(i)
        end
      done;
      (* The middle epoch commits, then replays as workload: its
         write-back happens via the recovery path, under the tracker, so
         the sweep crashes mid-replay too. *)
      if e = (epochs / 2) + 1 then begin
        Snapshot.sync ~stop_after:`Commit snap;
        Snapshot.replay snap
      end
      else Snapshot.sync snap;
      let after = Tracker.seq tracker in
      log :=
        { s_before = before; s_after = after; s_cells = Array.copy model }
        :: !log
    done;
    let log = List.rev !log in
    let initial = Array.init cells (fun i -> 1000 + i) in
    let show a =
      String.concat "," (Array.to_list (Array.map string_of_int a))
    in
    let verify ~seq machine' regions' =
      let region' = find_region rid regions' in
      (* Recovery order matters: replay the snapshot log first, then
         read the (possibly just-reinstalled) cells. *)
      let snap' = Snapshot.attach machine' region' in
      if Snapshot.committed_bytes snap' <> 0 then
        Error "snapshot log still committed after recovery"
      else begin
        let block' =
          match Region.root region' "snapcells" with
          | Some a -> a
          | None -> failwith "snapcells root lost"
        in
        let actual =
          Array.init cells (fun i ->
              Memsim.load64 machine'.Machine.mem
                (Vaddr.add block' (i * stride)))
        in
        let committed =
          List.fold_left
            (fun acc ep -> if ep.s_after <= seq then ep.s_cells else acc)
            initial log
        in
        let candidates =
          committed
          ::
          (match
             List.find_opt
               (fun ep -> ep.s_before < seq && seq < ep.s_after)
               log
           with
          | Some ep -> [ ep.s_cells ]
          | None -> [])
        in
        if List.exists (fun c -> c = actual) candidates then Ok ()
        else
          Error
            (Printf.sprintf
               "epoch torn or lost: recovered [%s], expected [%s]"
               (show actual)
               (String.concat "] or [" (List.map show candidates)))
      end
    in
    { tracker; verify }
  in
  { name; expect_fail = drop_writeback; run }

(* Kvstore over the plain (snapshot) write path: batches of
   un-instrumented puts/deletes on a freelist-heap object store, each
   batch closed by a sync. The oracle is read-your-writes at epoch
   granularity — the whole batch (index, values, allocator words)
   appears atomically or not at all. *)
let snapshot_kv_scenario ?(epochs = 5) ?(granularity = Snapshot.Line) repr =
  let name =
    Printf.sprintf "snapshot-kv/%s/%s" (Repr.to_string repr)
      (Snapshot.granularity_to_string granularity)
  in
  let run ~metrics ~seed =
    let machine, rid, region =
      boot ~durability:(Durability.Snapshot granularity) ~metrics ~seed ()
    in
    if repr = Repr.Based then Machine.set_based_region machine rid;
    (* The flush-free freelist heap: under snapshot durability nothing
       but sync may move the durable cut (palloc's logged allocations
       would persist allocator state mid-epoch, docs/SNAPSHOT.md). *)
    (* The snapshot's meta/log pages must be carved out before the
       object store claims the whole remaining region as its heap. *)
    let snap = Snapshot.create machine region () in
    let os = Objstore.create machine region ~heap:`Freelist () in
    let kv = Kvstore.create os ~repr ~name:"kv" ~buckets:8 () in
    let model = ref [] in
    for k = 1 to 3 do
      let v = Printf.sprintf "init-%d" k in
      Kvstore.put kv ~key:k v;
      model := model_put k v !model
    done;
    Snapshot.sync snap;
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let initial = !model in
    let log = ref [] in
    for e = 1 to epochs do
      let before = Tracker.seq tracker in
      for j = 0 to 2 do
        let key = (((e * 3) + j) mod 5) + 1 in
        if (e + j) mod 4 = 0 then begin
          ignore (Kvstore.delete kv ~key);
          model := model_del key !model
        end
        else begin
          let v = Printf.sprintf "v%d-%d" e key in
          Kvstore.put kv ~key v;
          model := model_put key v !model
        end
      done;
      Snapshot.sync snap;
      let after = Tracker.seq tracker in
      log := (before, after, canon !model) :: !log
    done;
    let log = List.rev !log in
    let universe = [ 1; 2; 3; 4; 5; 6 ] in
    let verify ~seq machine' regions' =
      let region' = find_region rid regions' in
      if repr = Repr.Based then
        Machine.set_based_region machine' (Region.rid region');
      (* Replay first: the object store's metadata and heap words are
         themselves part of the epoch being reinstalled. *)
      let snap' = Snapshot.attach machine' region' in
      if Snapshot.committed_bytes snap' <> 0 then
        Error "snapshot log still committed after recovery"
      else begin
        let os' = Objstore.attach machine' region' in
        let kv' = Kvstore.attach os' ~write_path:`Plain ~repr ~name:"kv" in
        let committed =
          List.fold_left
            (fun acc (_, after, state) -> if after <= seq then state else acc)
            (canon initial) log
        in
        let candidates =
          committed
          ::
          (match
             List.find_opt (fun (b, a, _) -> b < seq && seq < a) log
           with
          | Some (_, _, state) -> [ state ]
          | None -> [])
        in
        let actual =
          List.filter_map
            (fun k ->
              match Kvstore.get kv' ~key:k with
              | Some v -> Some (k, v)
              | None -> None)
            universe
          |> canon
        in
        if List.mem actual candidates then Ok ()
        else
          Error
            (Printf.sprintf
               "epoch read-your-writes: recovered %s, expected %s"
               (describe_map actual)
               (String.concat " or " (List.map describe_map candidates)))
      end
    in
    { tracker; verify }
  in
  { name; expect_fail = false; run }

(* {1 Catalogues} *)

let paper_structures =
  [ Instance.List; Instance.Btree; Instance.Hashset; Instance.Trie ]

let pi_reprs =
  [
    Repr.Off_holder;
    Repr.Riv;
    Repr.Fat;
    Repr.Fat_cached;
    Repr.Based;
    Repr.Packed_fat;
    Repr.Hw_oid;
  ]

let core_reprs = [ Repr.Off_holder; Repr.Riv; Repr.Fat_cached ]

let defaults () =
  List.concat_map
    (fun s -> List.map (fun r -> structure_scenario s r) pi_reprs)
    paper_structures
  @ List.map (fun r -> kv_scenario r) core_reprs
  @ List.concat_map
      (fun s -> List.map (fun r -> durable_scenario s r) Durable.reprs)
      durable_structures
  @ [
      tx_cells_scenario ();
      swizzle_window_scenario ();
      structure_scenario ~pinned_dependent:true Instance.List Repr.Normal;
      alloc_scenario ();
      snapshot_cells_scenario ~granularity:Snapshot.Line ();
      snapshot_cells_scenario ~granularity:Snapshot.Page ();
      snapshot_kv_scenario Repr.Riv;
      snapshot_kv_scenario Repr.Off_holder;
    ]

let selftests () =
  [
    structure_scenario ~fence:false Instance.List Repr.Riv;
    alloc_leak_selftest ();
    durable_scenario ~drop_flushes:true Instance.Hashset Repr.Riv;
    durable_scenario ~drop_flushes:true Instance.Btree Repr.Off_holder;
    snapshot_cells_scenario ~drop_writeback:true ();
  ]
