module Machine = Core.Machine
module Region = Core.Region
module Store = Core.Store
module Memsim = Core.Memsim
module Objstore = Nvmpi_tx.Objstore
module Tx = Nvmpi_tx.Tx
module Vaddr = Core.Kinds.Vaddr

let ia (a : Vaddr.t) = (a :> int)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_store ?(size = 1 lsl 20) ?(seed = 1) () =
  let store = Store.create () in
  let m = Machine.create ~seed ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size) in
  let os = Objstore.create m r () in
  (store, m, r, os)

(* Object store *)

let test_alloc_wrapping () =
  let _, _, _, os = with_store () in
  let a = Objstore.alloc os ~tag:7 ~size:40 () in
  check "tag" 7 (Objstore.obj_tag os a);
  check "size" 40 (Objstore.obj_size os a);
  check "alive" 1 (Objstore.objects_alive os);
  (* 128-byte wrapping: two small objects are at least 128 bytes apart. *)
  let b = Objstore.alloc os ~size:8 () in
  check_bool "wrap unit spacing" true
    (abs (Vaddr.diff b a) >= Objstore.wrap_unit);
  Objstore.free os a;
  check "alive after free" 1 (Objstore.objects_alive os)

let test_alloc_reuse () =
  let _, _, _, os = with_store () in
  let a = Objstore.alloc os ~size:64 () in
  Objstore.free os a;
  let b = Objstore.alloc os ~size:64 () in
  check "freed slot reused" (ia a) (ia b)

let test_attach_after_remap () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:10 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 20) in
  let r1 = Machine.open_region m1 rid in
  let os1 = Objstore.create m1 r1 () in
  let a = Objstore.alloc os1 ~tag:3 ~size:16 () in
  Memsim.store64 m1.Machine.mem a 777;
  Region.set_root r1 "obj" a;
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:20 ~store () in
  let r2 = Machine.open_region m2 rid in
  let os2 = Objstore.attach m2 r2 in
  let a' = Option.get (Region.root r2 "obj") in
  check "tag survives" 3 (Objstore.obj_tag os2 a');
  check "value survives" 777 (Memsim.load64 m2.Machine.mem a');
  check "alive count survives" 1 (Objstore.objects_alive os2);
  (* The freelist still works at the new base. *)
  let b = Objstore.alloc os2 ~size:16 () in
  check_bool "fresh alloc in new run" true (not (Vaddr.is_null b))

let test_attach_requires_store () =
  let store = Store.create () in
  let m = Machine.create ~seed:2 ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
  check_bool "no store" true
    (try
       ignore (Objstore.attach m r);
       false
     with Failure _ -> true)

(* Transactions *)

let test_commit_keeps_values () =
  let _, m, _, os = with_store () in
  let a = Objstore.alloc os ~size:16 () in
  Memsim.store64 m.Machine.mem a 1;
  let tx = Tx.create os in
  Tx.run tx (fun () ->
      Tx.store64 tx a 2;
      check "visible inside tx" 2 (Tx.load64 tx a));
  check "committed" 2 (Memsim.load64 m.Machine.mem a);
  check "log truncated" 0 (Objstore.log_entries os)

let test_abort_restores_values () =
  let _, m, _, os = with_store () in
  let a = Objstore.alloc os ~size:16 () in
  let b = Objstore.alloc os ~size:16 () in
  Memsim.store64 m.Machine.mem a 1;
  Memsim.store64 m.Machine.mem b 10;
  let tx = Tx.create os in
  Tx.begin_tx tx;
  Tx.store64 tx a 2;
  Tx.store64 tx b 20;
  Tx.store64 tx a 3;
  Tx.abort tx;
  check "a restored" 1 (Memsim.load64 m.Machine.mem a);
  check "b restored" 10 (Memsim.load64 m.Machine.mem b);
  check "log truncated" 0 (Objstore.log_entries os)

let test_exception_aborts () =
  let _, m, _, os = with_store () in
  let a = Objstore.alloc os ~size:16 () in
  Memsim.store64 m.Machine.mem a 5;
  let tx = Tx.create os in
  check_bool "exception propagates" true
    (try
       Tx.run tx (fun () ->
           Tx.store64 tx a 6;
           failwith "boom")
     with Failure _ -> true);
  check "rolled back" 5 (Memsim.load64 m.Machine.mem a);
  check_bool "tx closed" false (Tx.active tx)

let test_crash_recovery () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:30 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 20) in
  let r1 = Machine.open_region m1 rid in
  let os1 = Objstore.create m1 r1 () in
  let a = Objstore.alloc os1 ~size:16 () in
  Memsim.store64 m1.Machine.mem a 100;
  Region.set_root r1 "x" a;
  let tx = Tx.create os1 in
  Tx.begin_tx tx;
  Tx.store64 tx a 999;
  (* Power fails before commit; the dirty value may have reached NVM. *)
  Tx.simulate_crash tx;
  check "torn value in memory" 999 (Memsim.load64 m1.Machine.mem a);
  Machine.close_region m1 rid;
  (* Next run: attach rolls the undo log back. *)
  let m2 = Machine.create ~seed:31 ~store () in
  let r2 = Machine.open_region m2 rid in
  let _os2 = Objstore.attach m2 r2 in
  let a' = Option.get (Region.root r2 "x") in
  check "recovered pre-tx value" 100 (Memsim.load64 m2.Machine.mem a')

(* A store file saved mid-transaction holds the undo record; attach
   reports it and rolls the cell back. [nvmpi inspect] prints this
   count, so it must be the image's, not the log's after rollback. *)
let test_store_file_pending_undo () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:33 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 20) in
  let r1 = Machine.open_region m1 rid in
  let os1 = Objstore.create m1 r1 () in
  check "a created store rolled nothing back" 0 (Objstore.rolled_back os1);
  let a = Objstore.alloc os1 ~size:16 () in
  Memsim.store64 m1.Machine.mem a 7;
  Region.set_root r1 "x" a;
  let tx = Tx.create os1 in
  Tx.begin_tx tx;
  Tx.store64 tx a 8;
  Tx.simulate_crash tx;
  Machine.close_region m1 rid;
  let file = Filename.temp_file "pending_undo" ".nvm" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Store.save_file store file;
      let store = Store.load_file file in
      let m2 = Machine.create ~seed:34 ~store () in
      let r2 = Machine.open_region m2 rid in
      let os2 = Objstore.attach m2 r2 in
      check "pending undo records" 1 (Objstore.rolled_back os2);
      check "log drained" 0 (Objstore.log_entries os2);
      let a' = Option.get (Region.root r2 "x") in
      check "old value back" 7 (Memsim.load64 m2.Machine.mem a');
      check "a clean attach rolls nothing back" 0
        (Objstore.rolled_back (Objstore.attach m2 r2)))

let test_crash_after_commit_durable () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:32 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 20) in
  let r1 = Machine.open_region m1 rid in
  let os1 = Objstore.create m1 r1 () in
  let a = Objstore.alloc os1 ~size:16 () in
  Region.set_root r1 "x" a;
  let tx = Tx.create os1 in
  Tx.run tx (fun () -> Tx.store64 tx a 42);
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:33 ~store () in
  let r2 = Machine.open_region m2 rid in
  let _ = Objstore.attach m2 r2 in
  let a' = Option.get (Region.root r2 "x") in
  check "committed value durable" 42 (Memsim.load64 m2.Machine.mem a')

let test_add_range () =
  let _, m, _, os = with_store () in
  let a = Objstore.alloc os ~size:64 () in
  for i = 0 to 7 do
    Memsim.store64 m.Machine.mem (Vaddr.add a (i * 8)) i
  done;
  let tx = Tx.create os in
  Tx.begin_tx tx;
  Tx.add_range tx ~addr:a ~len:64;
  for i = 0 to 7 do
    Memsim.store64 m.Machine.mem (Vaddr.add a (i * 8)) (100 + i)
  done;
  Tx.abort tx;
  for i = 0 to 7 do
    check (Printf.sprintf "word %d restored" i) i
      (Memsim.load64 m.Machine.mem (Vaddr.add a (i * 8)))
  done

let test_tx_state_errors () =
  let _, _, _, os = with_store () in
  let tx = Tx.create os in
  check_bool "commit outside tx" true
    (try
       Tx.commit tx;
       false
     with Tx.Not_in_transaction -> true);
  Tx.begin_tx tx;
  check_bool "nested begin" true
    (try
       Tx.begin_tx tx;
       false
     with Tx.Already_in_transaction -> true);
  Tx.abort tx

(* Abort midway through relinking a pointer chain: every link — however
   many objects deep the partial update got — must roll back to the
   original chain, and a traversal must still terminate on the old
   topology. *)
let test_abort_partial_pointer_chain () =
  let _, m, _, os = with_store () in
  let mem = m.Machine.mem in
  let node v =
    let n = Objstore.alloc os ~size:16 () in
    Memsim.store64 mem n v;
    n
  in
  let a = node 1 and b = node 2 and c = node 3 and d = node 4 in
  let link x y = Memsim.store64 mem (Vaddr.add x 8) (ia y) in
  (* Durable chain a -> b -> c, d detached. *)
  link a b;
  link b c;
  link c Vaddr.null;
  let tx = Tx.create os in
  Tx.begin_tx tx;
  (* Partial splice of d between a and b: the first link is redirected
     and d's next written, but b's side never happens. *)
  Tx.store64 tx (Vaddr.add a 8) (ia d);
  Tx.store64 tx (Vaddr.add d 8) (ia b);
  Tx.abort tx;
  let next x = Vaddr.v (Memsim.load64 mem (Vaddr.add x 8)) in
  check "a.next restored" (ia b) (ia (next a));
  check "b.next untouched" (ia c) (ia (next b));
  let rec walk x acc =
    if Vaddr.is_null x then List.rev acc
    else walk (next x) (Memsim.load64 mem x :: acc)
  in
  Alcotest.(check (list int)) "old topology traverses" [ 1; 2; 3 ] (walk a [])

(* Nested begin must be rejected through the run wrapper too, and the
   outer transaction must survive the rejection intact. *)
let test_nested_run_rejected () =
  let _, m, _, os = with_store () in
  let a = Objstore.alloc os ~size:16 () in
  Memsim.store64 m.Machine.mem a 1;
  let tx = Tx.create os in
  Tx.begin_tx tx;
  Tx.store64 tx a 2;
  check_bool "nested run rejected" true
    (try
       Tx.run tx (fun () -> ());
       false
     with Tx.Already_in_transaction -> true);
  check_bool "outer tx still open" true (Tx.active tx);
  Tx.commit tx;
  check "outer commit lands" 2 (Memsim.load64 m.Machine.mem a)

(* A crash with an open but empty undo log: recovery must be a no-op
   that still leaves the store attachable and consistent. *)
let test_empty_undo_log_recovery () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:40 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 20) in
  let r1 = Machine.open_region m1 rid in
  let os1 = Objstore.create m1 r1 () in
  let a = Objstore.alloc os1 ~size:16 () in
  Memsim.store64 m1.Machine.mem a 55;
  Region.set_root r1 "x" a;
  let tx = Tx.create os1 in
  Tx.begin_tx tx;
  (* Crash before the first tracked store: nothing was logged. *)
  Tx.simulate_crash tx;
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:41 ~store () in
  let r2 = Machine.open_region m2 rid in
  let os2 = Objstore.attach m2 r2 in
  check "log empty after recovery" 0 (Objstore.log_entries os2);
  let a' = Option.get (Region.root r2 "x") in
  check "value untouched by empty rollback" 55 (Memsim.load64 m2.Machine.mem a');
  (* The recovered store is fully usable. *)
  let tx2 = Tx.create os2 in
  Tx.run tx2 (fun () -> Tx.store64 tx2 a' 56);
  check "post-recovery tx commits" 56 (Memsim.load64 m2.Machine.mem a')

let test_persist_costs_charged () =
  let _, m, _, os = with_store () in
  let a = Objstore.alloc os ~size:16 () in
  let tx = Tx.create os in
  let fences () = Core.Metrics.get (Machine.metrics m) "timing.fences" in
  let fences_before = fences () in
  Tx.run tx (fun () -> Tx.store64 tx a 1);
  check_bool "fences issued for log + commit" true
    (fences () >= fences_before + 2)

let test_log_full_detected () =
  let store = Store.create () in
  let m = Machine.create ~seed:5 ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 20)) in
  (* A tiny log fills after a few records. *)
  let os = Objstore.create m r ~log_cap:128 () in
  let a = Objstore.alloc os ~size:64 () in
  let tx = Tx.create os in
  Tx.begin_tx tx;
  check_bool "log overflow detected" true
    (try
       for i = 0 to 7 do
         Tx.store64 tx (Vaddr.add a (i * 8)) i
       done;
       false
     with Failure _ -> true);
  Tx.abort tx

(* A commit flushes each dirtied line once, in the order the
   transaction first dirtied it: the flushes before the commit's first
   fence are lines A, B, C for stores to A, B, A, C. *)
let test_commit_flush_order () =
  let _, m, _, os = with_store () in
  let x = Objstore.alloc os ~size:256 () in
  let line a = ia a land lnot 63 in
  (* Neither ascending nor descending. *)
  let a = Vaddr.add x 192 and b = Vaddr.add x 64 and c = Vaddr.add x 128 in
  check_bool "three lines" true
    (line a <> line b && line b <> line c && line a <> line c);
  let tx = Tx.create os in
  Tx.begin_tx tx;
  Tx.store64 tx a 1;
  Tx.store64 tx b 2;
  Tx.store64 tx (Vaddr.add a 8) 3;
  Tx.store64 tx c 4;
  let flushed = ref [] and fenced = ref false in
  Core.Timing.set_persist_hook m.Machine.timing
    (Some
       (function
       | Core.Timing.Flushed addr ->
           if not !fenced then flushed := addr :: !flushed
       | Fenced -> fenced := true));
  Tx.commit tx;
  Core.Timing.set_persist_hook m.Machine.timing None;
  Alcotest.(check (list int))
    "first-dirtied order" [ line a; line b; line c ] (List.rev !flushed)

(* A word inside a range that add_range or add_fresh registered, or
   that store64 logged, gets no undo record of its own. *)
let test_store_logs_word_once () =
  let _, _, _, os = with_store () in
  let x = Objstore.alloc os ~size:64 () and y = Objstore.alloc os ~size:64 () in
  let tx = Tx.create os in
  let records () = Objstore.log_entries os in
  Tx.begin_tx tx;
  (* [x + 36, x + 40) covers the word at [x + 32] and ends before the
     one at [x + 40]. *)
  Tx.add_range tx ~addr:(Vaddr.add x 36) ~len:4;
  check "add_range appends one record" 1 (records ());
  Tx.store64 tx (Vaddr.add x 32) 1;
  check "a word in the range appends none" 1 (records ());
  Tx.add_fresh tx ~addr:y ~len:64;
  check "add_fresh appends none" 1 (records ());
  Tx.store64 tx (Vaddr.add y 56) 2;
  check "a word in the fresh range appends none" 1 (records ());
  Tx.store64 tx (Vaddr.add x 40) 3;
  check "a word outside appends one" 2 (records ());
  Tx.store64 tx (Vaddr.add x 40) 4;
  check "a second store to it appends none" 2 (records ());
  Tx.commit tx;
  Tx.begin_tx tx;
  Tx.store64 tx (Vaddr.add x 40) 5;
  check "a new transaction logs it again" 1 (records ());
  Tx.commit tx

(* Property: random interleavings of committed and aborted transactions
   leave exactly the committed effects. *)
let prop_tx_semantics =
  QCheck2.Test.make ~name:"aborted txs leave no trace" ~count:40
    QCheck2.Gen.(list_size (int_range 1 20) (pair bool (int_range 0 7)))
    (fun script ->
      let _, m, _, os = with_store () in
      let slots = Array.init 8 (fun _ -> Objstore.alloc os ~size:16 ()) in
      Array.iter (fun a -> Memsim.store64 m.Machine.mem a 0) slots;
      let expected = Array.make 8 0 in
      let tx = Tx.create os in
      List.iteri
        (fun i (commit, slot) ->
          Tx.begin_tx tx;
          Tx.store64 tx slots.(slot) (i + 1);
          if commit then begin
            Tx.commit tx;
            expected.(slot) <- i + 1
          end
          else Tx.abort tx)
        script;
      Array.for_all2
        (fun a v -> Memsim.load64 m.Machine.mem a = v)
        slots expected)

let () =
  Alcotest.run "tx"
    [
      ( "objstore",
        [
          Alcotest.test_case "alloc wrapping" `Quick test_alloc_wrapping;
          Alcotest.test_case "alloc reuse" `Quick test_alloc_reuse;
          Alcotest.test_case "attach after remap" `Quick
            test_attach_after_remap;
          Alcotest.test_case "attach requires store" `Quick
            test_attach_requires_store;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit keeps values" `Quick
            test_commit_keeps_values;
          Alcotest.test_case "abort restores values" `Quick
            test_abort_restores_values;
          Alcotest.test_case "exception aborts" `Quick test_exception_aborts;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "store file keeps pending undo records" `Quick
            test_store_file_pending_undo;
          Alcotest.test_case "commit durable across crash" `Quick
            test_crash_after_commit_durable;
          Alcotest.test_case "add_range" `Quick test_add_range;
          Alcotest.test_case "state errors" `Quick test_tx_state_errors;
          Alcotest.test_case "abort after partial pointer chain" `Quick
            test_abort_partial_pointer_chain;
          Alcotest.test_case "nested run rejected" `Quick
            test_nested_run_rejected;
          Alcotest.test_case "empty undo log recovery" `Quick
            test_empty_undo_log_recovery;
          Alcotest.test_case "persist costs charged" `Quick
            test_persist_costs_charged;
          Alcotest.test_case "commit flushes in first-dirtied order" `Quick
            test_commit_flush_order;
          Alcotest.test_case "store64 logs a word once" `Quick
            test_store_logs_word_once;
          Alcotest.test_case "log overflow detected" `Quick
            test_log_full_detected;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_tx_semantics ]);
    ]
