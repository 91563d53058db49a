module Machine = Core.Machine
module Repr = Core.Repr
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Memsim = Nvmpi_memsim.Memsim
module Metrics = Nvmpi_obs.Metrics
module Rid = Nvmpi_addr.Kinds.Rid
module Vaddr = Nvmpi_addr.Kinds.Vaddr
module Node = Nvmpi_structures.Node
module Durable = Nvmpi_structures.Durable
module Instance = Nvmpi_experiments.Instance
module Workload = Nvmpi_experiments.Workload
module Palloc = Nvmpi_palloc.Palloc
module Timing = Nvmpi_cachesim.Timing
module Objstore = Nvmpi_tx.Objstore
module Tx = Nvmpi_tx.Tx
module Kvstore = Nvmpi_apps.Kvstore
module Snapshot = Nvmpi_snapshot.Snapshot
module Durability = Core.Durability
module IntSet = Set.Make (Int)

type run = {
  tracker : Tracker.t;
  expect : seq:int -> int;
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
let ( let* ) = Result.bind

(* {1 The skeleton}

   Every scenario boots one region, builds its pre-arm state, arms a
   tracker and runs a workload that records a history of expected
   states: the model state after each step, stamped with the tracker
   seqs that bracket the step. At a crash point the last step completed
   is committed, and a step the crash lands inside may also have
   happened, all or nothing. A checkpoint step brackets no events, so it
   is expected from its fence on. The scenario's [check] receives the
   committed state first, then the in-flight one if there is one: the
   durable-linearizability condition of NVTraverse (Friedman et al.). *)

type 'a step = { before : int; after : int; state : 'a }
type 'a history = { tracker : Tracker.t; mutable steps : 'a step list }

(* [state] is expected from the current point on. The workload settles
   its arm-time state before any event. *)
let settle h state =
  let seq = Tracker.seq h.tracker in
  h.steps <- { before = seq; after = seq; state } :: h.steps

(* [state] runs after the fence, so a state read through the live
   structure is charged where it always was. *)
let checkpoint ?fence h state =
  Tracker.checkpoint ?fence h.tracker;
  settle h (state ())

(* Runs one op; [f] returns the model state after it. *)
let op h f =
  let before = Tracker.seq h.tracker in
  let state = f () in
  h.steps <- { before; after = Tracker.seq h.tracker; state } :: h.steps

type 'a workload = {
  record : 'a history -> unit;
  check : 'a list -> Machine.t -> Region.t -> (unit, string) result;
}

let scenario ?(expect_fail = false) ?durability ?fault ?(repr = Repr.Normal)
    name setup =
  let based = repr = Repr.Based in
  let run ~metrics ~seed =
    let store = Store.create () in
    let machine = Machine.create ~metrics ~seed ?durability ?fault ~store () in
    let rid = Machine.create_region machine ~size:region_size in
    let region = Machine.open_region machine rid in
    if based then Machine.set_based_region machine rid;
    let { record; check } = setup ~seed machine region in
    let tracker = Tracker.attach machine in
    Tracker.arm tracker;
    let h = { tracker; steps = [] } in
    record h;
    let steps = Array.of_list (List.rev h.steps) in
    let n = Array.length steps in
    (* Outcome 2i: step i is the last one complete. 2i + 1: step i + 1
       is in flight too. Steps run in order, so no other can be. *)
    let expect ~seq =
      let rec last i =
        if i + 1 < n && steps.(i + 1).after <= seq then last (i + 1) else i
      in
      let i = last 0 in
      if i + 1 < n && steps.(i + 1).before < seq then (2 * i) + 1 else 2 * i
    in
    let verify ~seq machine' regions' =
      let region' =
        match List.assoc_opt rid regions' with
        | Some r -> r
        | None -> failwith "recovered store lost the region"
      in
      if based then Machine.set_based_region machine' (Region.rid region');
      let k = expect ~seq in
      let committed = steps.(k / 2).state in
      check
        (if k land 1 = 0 then [ committed ]
         else [ committed; steps.((k / 2) + 1).state ])
        machine' region'
    in
    { tracker; expect; verify }
  in
  { name; expect_fail; run }

(* {1 Shared recovery checks} *)

let one_of what show actual expected =
  if List.mem actual expected then Ok ()
  else
    Error
      (Printf.sprintf "%s: recovered %s, expected %s" what (show actual)
         (String.concat " or " (List.map show expected)))

let root region' name =
  match Region.root region' name with
  | Some a -> a
  | None -> failwith (name ^ " root lost")

let membership inst' keys ~mem =
  match List.find_opt (fun k -> inst'.Instance.search k <> mem k) keys with
  | Some k ->
      Error
        (Printf.sprintf "key %d %s after recovery" k
           (if mem k then "missing" else "present"))
  | None -> Ok ()

(* Attaching the object store rolls back an interrupted transaction. *)
let undo_replayed machine' region' =
  let os' = Objstore.attach machine' region' in
  if Objstore.log_entries os' <> 0 then
    Error "undo log still has records after recovery"
  else Ok os'

(* Attaching the snapshot replays a committed log; the state must be read
   after it. *)
let snapshot_replayed machine' region' =
  let snap' = Snapshot.attach machine' region' in
  if Snapshot.committed_bytes snap' <> 0 then
    Error "snapshot log still committed after recovery"
  else Ok ()

let model_put k v m = (k, v) :: List.remove_assoc k m
let model_del k m = List.remove_assoc k m
let canon m = List.sort compare m

let describe_map m =
  "{"
  ^ String.concat "; "
      (List.map (fun (k, v) -> Printf.sprintf "%d:%S" k v) m)
  ^ "}"

let kv_contents kv' =
  List.filter_map
    (fun k -> Option.map (fun v -> (k, v)) (Kvstore.get kv' ~key:k))
    [ 1; 2; 3; 4; 5; 6 ]
  |> canon

let show_cells a =
  "[" ^ String.concat "," (Array.to_list (Array.map string_of_int a)) ^ "]"

(* {1 Plain-mode structures}

   The structure is built in batches with a checkpoint after each.
   Recovery must reproduce the last durable checkpoint exactly: node
   count, payload checksum, and membership of every key inserted so far
   (probed through the recovered pointers at the new segment). *)

type contents = { count : int; checksum : int; present : int list }

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
  scenario name ~expect_fail:(not fence) ~repr (fun ~seed machine region ->
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
      let contents present =
        let count, checksum = inst.Instance.traverse () in
        { count; checksum; present }
      in
      let record h =
        settle h (contents pre);
        let inserted = ref pre in
        Array.iteri
          (fun i k ->
            inst.Instance.insert k;
            inserted := k :: !inserted;
            if (i + 1) mod batch = 0 || i = Array.length ks - 1 then
              checkpoint ~fence h (fun () -> contents !inserted))
          ks
      in
      let all_keys = Array.to_list ks @ pre in
      let absent_probe = List.fold_left max 0 all_keys + 1 in
      let check_against cp machine' region' =
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
        else
          let* () =
            membership inst' all_keys ~mem:(fun k -> List.mem k cp.present)
          in
          if inst'.Instance.search absent_probe then
            Error
              (Printf.sprintf "never-inserted key %d found after recovery"
                 absent_probe)
          else Ok ()
      in
      let check expected machine' region' =
        let cp = List.hd expected in
        if not pinned_dependent then check_against cp machine' region'
        else if Vaddr.equal (Region.base region') original_base then
          (* The random remap landed on the original segment: absolute
             pointers happen to be valid, nothing to pin. *)
          Ok ()
        else
          (* Pinned failure mode: the durable image carries absolute
             pointers from the previous mapping; after the remap the
             corruption must be observable. *)
          match check_against cp machine' region' with
          | Error _ | (exception _) -> Ok ()
          | Ok () ->
              Error
                "position-dependent image recovered cleanly after remap; \
                 expected corruption went undetected"
      in
      { record; check })

(* {1 Kvstore over transactions}

   Each put/delete is one undo-logged transaction: read-your-writes
   against the committed prefix, the in-flight transaction never torn. *)

let kv_scenario ?(ops = 8) repr =
  let name = Printf.sprintf "kvstore/%s" (Repr.to_string repr) in
  scenario name ~repr (fun ~seed:_ machine region ->
      let os = Objstore.create machine region () in
      let kv = Kvstore.create os ~repr ~name:"kv" ~buckets:8 () in
      let model = ref [] in
      for k = 1 to 3 do
        let v = Printf.sprintf "init-%d" k in
        Kvstore.put kv ~key:k v;
        model := model_put k v !model
      done;
      let record h =
        settle h (canon !model);
        for i = 1 to ops do
          let key = (i mod 5) + 1 in
          op h (fun () ->
              if i mod 4 = 0 then begin
                ignore (Kvstore.delete kv ~key);
                model := model_del key !model
              end
              else begin
                let v = Printf.sprintf "v%d-%d" i key in
                Kvstore.put kv ~key v;
                model := model_put key v !model
              end;
              canon !model)
        done
      in
      let check expected machine' region' =
        let* os' = undo_replayed machine' region' in
        let kv' = Kvstore.attach os' ~repr ~name:"kv" in
        one_of "read-your-writes" describe_map (kv_contents kv') expected
      in
      { record; check })

(* {1 Raw object-store transactions}

   A bank-cell workload straight on Tx.store64: each transaction writes
   two of eight cells. Atomicity per transaction, checked against the
   durable commit prefix. *)

let tx_cells_scenario ?(txs = 6) () =
  scenario "objstore-tx-cells" (fun ~seed:_ machine region ->
      let os = Objstore.create machine region () in
      let cells = Objstore.alloc os ~tag:0xCE11 ~size:64 () in
      let cell i = Vaddr.add cells (8 * i) in
      let mem = machine.Machine.mem in
      let model = Array.init 8 (fun i -> 100 + i) in
      Array.iteri (fun i v -> Memsim.store64 mem (cell i) v) model;
      Region.set_root region "cells" cells;
      let record h =
        settle h (Array.copy model);
        let tx = Tx.create os in
        for j = 1 to txs do
          let i1 = j mod 8 and i2 = (3 * j) mod 8 in
          let v1 = (j * 1000) + i1 and v2 = (j * 1000) + i2 + 7 in
          op h (fun () ->
              Tx.begin_tx tx;
              Tx.store64 tx (cell i1) v1;
              Tx.store64 tx (cell i2) v2;
              Tx.commit tx;
              model.(i1) <- v1;
              model.(i2) <- v2;
              Array.copy model)
        done
      in
      let check expected machine' region' =
        let* _ = undo_replayed machine' region' in
        let cells' = root region' "cells" in
        let actual =
          Array.init 8 (fun i ->
              Memsim.load64 machine'.Machine.mem (Vaddr.add cells' (8 * i)))
        in
        one_of "torn cells after recovery" show_cells actual expected
      in
      { record; check })

(* {1 The swizzle window}

   Between the swizzle (load-time) and unswizzle (save-time) passes a
   swizzled structure is position dependent on NVM. A crash while the
   image is packed recovers; a crash after a persist of the swizzled
   form must observably fail after the remap — the pinned failure mode
   this scenario documents. *)

let swizzle_window_scenario ?(keys = 8) () =
  scenario "swizzle-unswizzle-window" (fun ~seed machine region ->
      let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload in
      let root = "swz" in
      let inst = Instance.create Instance.List Repr.Swizzle node ~name:root in
      let ks = Workload.keys ~n:keys ~seed:(seed + 23) in
      Array.iter (fun k -> inst.Instance.insert k) ks;
      let whole = inst.Instance.traverse () in
      inst.Instance.unswizzle ();
      let original_base = Region.base region in
      let record h =
        settle h `Packed;
        inst.Instance.swizzle ();
        (* This fence persists absolute pointers: every crash point until
           the post-unswizzle fence inherits them. *)
        checkpoint h (fun () -> `Swizzled);
        inst.Instance.unswizzle ();
        checkpoint h (fun () -> `Packed)
      in
      let check expected machine' region' =
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
        match List.hd expected with
        | `Packed -> (
            match attempt with
            | Ok got when got = whole -> Ok ()
            | Ok (c, s) ->
                Error
                  (Printf.sprintf
                     "packed image recovered to %d nodes (0x%x), expected %d \
                      (0x%x)"
                     c s (fst whole) (snd whole))
            | Error msg ->
                Error ("recovery failed outside the swizzled window: " ^ msg))
        | `Swizzled -> (
            if Vaddr.equal (Region.base region') original_base then Ok ()
            else
              match attempt with
              | Error _ -> Ok () (* dangling absolute pointer faulted: pinned *)
              | Ok got when got <> whole -> Ok () (* visible corruption *)
              | Ok _ ->
                  Error
                    "swizzled (position-dependent) image recovered cleanly \
                     after remap; expected corruption went undetected")
      in
      { record; check })

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
     [alloc_into]/[free_from] promise exactly this atomicity.

   Both hold at every point whatever the workload did, so the history
   is one state. *)

let palloc_over machine region ~fresh =
  let heap_off = Nvmpi_addr.Bitops.align_up (Region.heap_top region) 16 in
  let lo = Region.addr_of_offset region heap_off in
  let hi = Vaddr.add (Region.base region) (Region.size region) in
  (if fresh then Palloc.init else Palloc.recover)
    ~mem:machine.Machine.mem ~timing:machine.Machine.timing
    ~metrics:(Machine.metrics machine) ~lo ~hi

let verify_palloc _expected machine' region' =
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

(* Pre-arm history, so the churn frees real blocks. *)
let palloc_seeded machine region =
  let t = palloc_over machine region ~fresh:true in
  ignore (Palloc.alloc_into t ~root:0 24);
  ignore (Palloc.alloc_into t ~root:1 5000);
  t

(* [ops] seeded steps over six roots: free an occupied root, else
   allocate into it. *)
let churn t rng ~ops =
  let sizes = [| 16; 4000; 200; 9000; 24; 120; 4096; 48; 1500; 600 |] in
  for i = 1 to ops do
    let root = i mod 6 in
    if Palloc.root_get t root <> 0 then Palloc.free_from t ~root
    else
      ignore
        (Palloc.alloc_into t ~root
           sizes.(Random.State.int rng (Array.length sizes)))
  done

let alloc_scenario ?(ops = 14) () =
  scenario "palloc-churn" (fun ~seed machine region ->
      let t = palloc_seeded machine region in
      let record h =
        settle h ();
        churn t (Random.State.make [| seed; 0xA110C |]) ~ops
      in
      { record; check = verify_palloc })

(* Large blocks between allocated neighbours, so the churn leaves
   several free large blocks, with links and merged sizes, for a close
   to make durable. Root 6, which the churn never touches, keeps them
   apart from the heap's free tail. *)
let palloc_fragmented machine region =
  let t = palloc_seeded machine region in
  List.iter
    (fun (root, n) -> ignore (Palloc.alloc_into t ~root n))
    [ (2, 9000); (3, 200); (4, 6000); (6, 9000) ];
  t

(* Churn, a clean close, a reattach in place (the O(1) reopen of a
   closed heap) and more churn: every crash point from the list flushes
   of the close to the reopened heap's first ops must recover. *)
let alloc_reopen_scenario () =
  scenario "palloc-reopen" (fun ~seed machine region ->
      let t = palloc_fragmented machine region in
      let record h =
        settle h ();
        let rng = Random.State.make [| seed; 0xC105E |] in
        churn t rng ~ops:10;
        Palloc.close t;
        churn (palloc_over machine region ~fresh:false) rng ~ops:10
      in
      { record; check = verify_palloc })

(* Selftest double: clear a root cell durably {e before} freeing the
   block it referenced. Every crash point between those two fences has
   a live block no root references — a leak the sweep must call out. *)
let alloc_leak_selftest () =
  scenario ~expect_fail:true "selftest-leak-palloc"
    (fun ~seed:_ machine region ->
      let t = palloc_over machine region ~fresh:true in
      let p = Palloc.alloc_into t ~root:2 160 in
      let record h =
        settle h ();
        let timing = machine.Machine.timing in
        Memsim.store64 machine.Machine.mem (Palloc.root_addr t 2) 0;
        Timing.flush timing ~addr:((Palloc.root_addr t 2 :> int));
        Timing.fence timing;
        (* The block is now unreachable but still allocated: leaked. *)
        Palloc.free t p
      in
      { record; check = verify_palloc })

(* Selftest double: a close that skips the list flushes. The [closed]
   mark becomes durable over lists the churn left stale, and the
   recovery that trusts them must fail the check. *)
let alloc_close_selftest () =
  scenario ~expect_fail:true "selftest-unflushed-close-palloc"
    (fun ~seed machine region ->
      let t = palloc_fragmented machine region in
      let record h =
        settle h ();
        churn t (Random.State.make [| seed; 0xC105E |]) ~ops:10;
        let timing = machine.Machine.timing in
        let mark = Palloc.log_state_addr t in
        Memsim.store64 machine.Machine.mem mark Palloc.log_closed;
        Timing.flush timing ~addr:(mark :> int);
        Timing.fence timing
      in
      { record; check = verify_palloc })

(* {1 Durable sets (link-and-persist)}

   Hashset/bstree under [Traverse] (docs/DURABLE.md): traversals
   flush nothing, each insert/remove persists exactly one modification
   window (fresh-node lines + one marked link flush + fence). Count,
   checksum and per-key membership are all probed through a
   traverse-mode attach, so recovery also exercises the marked-link
   repair path (the final mark-clearing store is deliberately never
   flushed). *)

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
  let fault =
    if drop_flushes then Some Durability.Drop_window_flushes else None
  in
  scenario name ~expect_fail:drop_flushes ~durability:Durability.Traverse
    ?fault ~repr (fun ~seed machine region ->
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
      let record h =
        settle h !model;
        let rng = Random.State.make [| seed; 0xD5E7 |] in
        for _ = 1 to ops do
          let k = universe.(Random.State.int rng (Array.length universe)) in
          op h (fun () ->
              if IntSet.mem k !model then begin
                ignore (inst.Instance.remove k);
                model := IntSet.remove k !model
              end
              else begin
                inst.Instance.insert k;
                model := IntSet.add k !model
              end;
              !model)
        done
      in
      let summary set =
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
      let check expected machine' region' =
        let node' =
          Node.make ~durability:Durability.Traverse machine'
            ~mode:(Node.Plain [| region' |]) ~payload
        in
        let inst' = Instance.attach structure repr node' ~name:root in
        let count, checksum = inst'.Instance.traverse () in
        let matches s = summary s = (count, checksum) in
        match List.find_opt matches expected with
        | None ->
            Error
              (Printf.sprintf
                 "recovered set has %d nodes (0x%x), expected %s — a \
                  completed op was lost or a partial node is reachable"
                 count checksum
                 (String.concat " or " (List.map describe expected)))
        | Some set ->
            membership inst' (Array.to_list universe) ~mem:(fun k ->
                IntSet.mem k set)
      in
      { record; check })

(* {1 Failure-atomic snapshots (FAMS/WAL)}

   Epochs of plain (un-instrumented) stores closed by [Snapshot.sync]
   (docs/SNAPSHOT.md); each epoch is one step, its commit fence the
   all-or-nothing pivot. Crash points land mid-log-append, post-commit
   pre-writeback and pre-truncate organically; one epoch runs
   [sync ~stop_after:`Commit] followed by an explicit [replay] so the
   replay path itself is part of the tracked event stream and gets
   mid-replay crash points. *)

let snapshot_cells_scenario ?(epochs = 5) ?(cells = 16)
    ?(granularity = Snapshot.Line) ?(drop_writeback = false) () =
  let name =
    let base =
      Printf.sprintf "snapshot-cells/%s"
        (Snapshot.granularity_to_string granularity)
    in
    if drop_writeback then "selftest-snapshot-nowb-" ^ base else base
  in
  let fault = if drop_writeback then Some Durability.Drop_writeback else None in
  scenario name ~expect_fail:drop_writeback
    ~durability:(Durability.Snapshot granularity) ?fault
    (fun ~seed:_ machine region ->
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
      let record h =
        settle h (Array.copy model);
        for e = 1 to epochs do
          op h (fun () ->
              for i = 0 to cells - 1 do
                if ((i * 7) + e) mod 3 <> 2 then begin
                  model.(i) <- (e * 1000) + i;
                  Memsim.store64 mem (cell i) model.(i)
                end
              done;
              (* The middle epoch commits, then replays as workload: its
                 write-back happens via the recovery path, under the
                 tracker, so the sweep crashes mid-replay too. *)
              if e = (epochs / 2) + 1 then begin
                Snapshot.sync ~stop_after:`Commit snap;
                Snapshot.replay snap
              end
              else Snapshot.sync snap;
              Array.copy model)
        done
      in
      let check expected machine' region' =
        let* () = snapshot_replayed machine' region' in
        let block' = root region' "snapcells" in
        let actual =
          Array.init cells (fun i ->
              Memsim.load64 machine'.Machine.mem
                (Vaddr.add block' (i * stride)))
        in
        one_of "epoch torn or lost" show_cells actual expected
      in
      { record; check })

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
  scenario name ~durability:(Durability.Snapshot granularity) ~repr
    (fun ~seed:_ machine region ->
      (* The flush-free freelist heap: under snapshot durability nothing
         but sync may move the durable cut (palloc's logged allocations
         would persist allocator state mid-epoch, docs/SNAPSHOT.md).
         The snapshot's meta/log pages must be carved out before the
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
      let record h =
        settle h (canon !model);
        for e = 1 to epochs do
          op h (fun () ->
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
              canon !model)
        done
      in
      let check expected machine' region' =
        (* The object store's metadata and heap words are themselves
           part of the epoch being reinstalled. *)
        let* () = snapshot_replayed machine' region' in
        let os' = Objstore.attach machine' region' in
        let kv' = Kvstore.attach os' ~write_path:`Plain ~repr ~name:"kv" in
        one_of "epoch read-your-writes" describe_map (kv_contents kv') expected
      in
      { record; check })

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
