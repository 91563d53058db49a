module Machine = Core.Machine
module Store = Core.Store
module Repr = Core.Repr
module Node = Nvmpi_structures.Node
module Text_gen = Nvmpi_apps.Text_gen
module Wordcount = Nvmpi_apps.Wordcount

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Text generation *)

let test_vocabulary_distinct () =
  let v = Text_gen.vocabulary ~size:500 ~seed:1 in
  check "size" 500 (Array.length v);
  let s = List.sort_uniq compare (Array.to_list v) in
  check "distinct" 500 (List.length s);
  Array.iter
    (fun w ->
      check_bool "lowercase a-z" true
        (String.for_all (fun c -> c >= 'a' && c <= 'z') w))
    v

let test_vocabulary_deterministic () =
  let a = Text_gen.vocabulary ~size:100 ~seed:5 in
  let b = Text_gen.vocabulary ~size:100 ~seed:5 in
  check_bool "same seed same vocab" true (a = b);
  let c = Text_gen.vocabulary ~size:100 ~seed:6 in
  check_bool "different seed differs" true (a <> c)

let test_zipf_skew () =
  let sample = Text_gen.zipf_sampler ~n:1000 ~s:1.0 ~seed:3 in
  let counts = Array.make 1000 0 in
  for _ = 1 to 20_000 do
    let k = sample () in
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank 0 must be far more frequent than rank 100. *)
  check_bool "zipf head heavy" true (counts.(0) > 5 * counts.(100));
  check_bool "rank0 plausible" true (counts.(0) > 1000)

let test_words_stream () =
  let w = Text_gen.words ~n:5000 ~vocab:200 ~seed:2 in
  check "length" 5000 (Array.length w);
  let distinct = List.sort_uniq compare (Array.to_list w) in
  check_bool "uses many words" true (List.length distinct > 50);
  check_bool "bounded by vocab" true (List.length distinct <= 200)

let test_reference_counts () =
  let counts = Text_gen.reference_counts [| "b"; "a"; "b" |] in
  Alcotest.(check (list (pair string int)))
    "counts" [ ("a", 1); ("b", 2) ] counts

(* Word/key encoding *)

let test_key_encoding_roundtrip () =
  List.iter
    (fun w ->
      Alcotest.(check string)
        ("roundtrip " ^ w) w
        (Wordcount.word_of_key (Wordcount.key_of_word w)))
    [ "a"; "z"; "hello"; "abcdefghijkl" ]

let test_key_encoding_rejects () =
  check_bool "empty" true
    (try
       ignore (Wordcount.key_of_word "");
       false
     with Invalid_argument _ -> true);
  check_bool "too long" true
    (try
       ignore (Wordcount.key_of_word "abcdefghijklm");
       false
     with Invalid_argument _ -> true);
  check_bool "bad char" true
    (try
       ignore (Wordcount.key_of_word "he-llo");
       false
     with Invalid_argument _ -> true)

let prop_key_injective =
  QCheck2.Test.make ~name:"word keys are injective" ~count:200
    QCheck2.Gen.(
      pair
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 12))
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 12)))
    (fun (w1, w2) ->
      w1 = w2 || Wordcount.key_of_word w1 <> Wordcount.key_of_word w2)

(* Wordcount application *)

let fresh_node ?(seed = 1) () =
  let store = Store.create () in
  let m = Machine.create ~seed ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 22)) in
  (store, m, r, Node.make m ~mode:(Node.Plain [| r |]) ~payload:32)

let test_wordcount_matches_reference () =
  let _, _, _, nd = fresh_node () in
  let stream = Text_gen.words ~n:3000 ~vocab:150 ~seed:9 in
  let result = Wordcount.count_words nd ~repr:Repr.Riv ~name:"wc" stream in
  check "total" 3000 result.Wordcount.total;
  let reference = Text_gen.reference_counts stream in
  check "distinct" (List.length reference) result.Wordcount.distinct;
  Alcotest.(check (list (pair string int)))
    "full counts match"
    reference
    (Wordcount.counts nd ~repr:Repr.Riv ~name:"wc")

let test_wordcount_all_reprs_agree () =
  let stream = Text_gen.words ~n:1000 ~vocab:80 ~seed:4 in
  let reference = Text_gen.reference_counts stream in
  List.iter
    (fun repr ->
      let _, m, r, nd = fresh_node () in
      if repr = Repr.Based then
        Machine.set_based_region m (Core.Region.rid r);
      let result = Wordcount.count_words nd ~repr ~name:"wc" stream in
      check
        (Repr.to_string repr ^ " distinct")
        (List.length reference)
        result.Wordcount.distinct;
      List.iter
        (fun (w, c) ->
          check
            (Repr.to_string repr ^ " count " ^ w)
            c
            (Wordcount.lookup nd ~repr ~name:"wc" w))
        (List.filteri (fun i _ -> i < 10) reference))
    [ Repr.Normal; Repr.Off_holder; Repr.Riv; Repr.Fat; Repr.Fat_cached;
      Repr.Based ]

let test_wordcount_incremental () =
  let _, _, _, nd = fresh_node () in
  let s1 = [| "apple"; "pear" |] in
  let s2 = [| "apple"; "plum" |] in
  ignore (Wordcount.count_words nd ~repr:Repr.Off_holder ~name:"wc" s1);
  ignore (Wordcount.count_words nd ~repr:Repr.Off_holder ~name:"wc" s2);
  check "apple counted across calls" 2
    (Wordcount.lookup nd ~repr:Repr.Off_holder ~name:"wc" "apple");
  check "plum" 1 (Wordcount.lookup nd ~repr:Repr.Off_holder ~name:"wc" "plum")

let test_wordcount_survives_remap () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:60 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 22) in
  let r1 = Machine.open_region m1 rid in
  let nd1 = Node.make m1 ~mode:(Node.Plain [| r1 |]) ~payload:32 in
  let stream = Text_gen.words ~n:2000 ~vocab:100 ~seed:8 in
  ignore (Wordcount.count_words nd1 ~repr:Repr.Riv ~name:"wc" stream);
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:61 ~store () in
  let r2 = Machine.open_region m2 rid in
  let nd2 = Node.make m2 ~mode:(Node.Plain [| r2 |]) ~payload:32 in
  Alcotest.(check (list (pair string int)))
    "counts survive the remap"
    (Text_gen.reference_counts stream)
    (Wordcount.counts nd2 ~repr:Repr.Riv ~name:"wc")

(* Key-value store *)

module Kvstore = Nvmpi_apps.Kvstore
module Objstore = Nvmpi_tx.Objstore

let fresh_kv ?(repr = Repr.Riv) ?(seed = 1) ?(buckets = 16) () =
  let store = Store.create () in
  let m = Machine.create ~seed ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 22)) in
  if repr = Repr.Based then Machine.set_based_region m (Core.Region.rid r);
  let os = Objstore.create m r () in
  (store, m, Kvstore.create os ~repr ~name:"kv" ~buckets ())

let test_kv_basics () =
  let _, _, kv = fresh_kv () in
  check "empty" 0 (Kvstore.size kv);
  Kvstore.put kv ~key:1 "one";
  Kvstore.put kv ~key:2 "two";
  Alcotest.(check (option string)) "get 1" (Some "one") (Kvstore.get kv ~key:1);
  Alcotest.(check (option string)) "get 2" (Some "two") (Kvstore.get kv ~key:2);
  Alcotest.(check (option string)) "get 3" None (Kvstore.get kv ~key:3);
  Kvstore.put kv ~key:1 "uno";
  Alcotest.(check (option string)) "replaced" (Some "uno")
    (Kvstore.get kv ~key:1);
  check "size" 2 (Kvstore.size kv);
  check_bool "delete" true (Kvstore.delete kv ~key:1);
  check_bool "delete again" false (Kvstore.delete kv ~key:1);
  Alcotest.(check (option string)) "gone" None (Kvstore.get kv ~key:1);
  Alcotest.(check (list int)) "keys" [ 2 ] (Kvstore.keys kv)

let test_kv_empty_and_large_values () =
  let _, _, kv = fresh_kv () in
  Kvstore.put kv ~key:5 "";
  Alcotest.(check (option string)) "empty value" (Some "")
    (Kvstore.get kv ~key:5);
  let big = String.init 5000 (fun i -> Char.chr (i land 0xFF)) in
  Kvstore.put kv ~key:6 big;
  Alcotest.(check (option string)) "large binary value" (Some big)
    (Kvstore.get kv ~key:6)

let test_kv_collisions () =
  (* One bucket: everything chains. *)
  let _, _, kv = fresh_kv ~buckets:1 () in
  for k = 1 to 50 do
    Kvstore.put kv ~key:k (string_of_int k)
  done;
  check "size" 50 (Kvstore.size kv);
  for k = 1 to 50 do
    Alcotest.(check (option string))
      ("chained " ^ string_of_int k)
      (Some (string_of_int k))
      (Kvstore.get kv ~key:k)
  done;
  (* Delete from the middle of the chain. *)
  check_bool "del 25" true (Kvstore.delete kv ~key:25);
  check "size after" 49 (Kvstore.size kv);
  Alcotest.(check (option string)) "neighbours intact" (Some "24")
    (Kvstore.get kv ~key:24)

let test_kv_overwrite_storm () =
  (* The store's free path must actually reclaim: after a storm of
     overwrites, deletes and re-inserts that leaves the same live keys
     behind, the heap holds exactly as many allocated blocks as it did
     at the baseline — nothing leaked, nothing double-freed. *)
  let store = Store.create () in
  let m = Machine.create ~seed:7 ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 22)) in
  let os = Objstore.create m r () in
  let kv = Kvstore.create os ~repr:Repr.Riv ~name:"kv" ~buckets:16 () in
  let keys = 32 in
  let value ~key ~len = String.make len (Char.chr (Char.code 'a' + (key mod 26))) in
  for key = 1 to keys do
    Kvstore.put kv ~key (value ~key ~len:24)
  done;
  let baseline = fst (Objstore.heap_block_count os) in
  let sizes = [| 8; 120; 480; 1500; 6000; 24 |] in
  for op = 1 to 600 do
    let key = 1 + (op mod keys) in
    if op mod 13 = 0 then begin
      ignore (Kvstore.delete kv ~key);
      Kvstore.put kv ~key (value ~key ~len:24)
    end
    else Kvstore.put kv ~key (value ~key ~len:sizes.(op mod Array.length sizes))
  done;
  (* Settle every key back onto its baseline-sized value. *)
  for key = 1 to keys do
    Kvstore.put kv ~key (value ~key ~len:24)
  done;
  Objstore.heap_check os;
  check "live blocks back to baseline" baseline
    (fst (Objstore.heap_block_count os));
  check "all keys survive the storm" keys (Kvstore.size kv);
  (* Dropping every key must release every value and entry block: the
     allocated count falls strictly below baseline. *)
  for key = 1 to keys do
    ignore (Kvstore.delete kv ~key)
  done;
  Objstore.heap_check os;
  check_bool "deletes reclaim below baseline" true
    (fst (Objstore.heap_block_count os) < baseline)

let test_kv_survives_remap () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:90 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 22) in
  let r1 = Machine.open_region m1 rid in
  let os1 = Objstore.create m1 r1 () in
  let kv1 = Kvstore.create os1 ~repr:Repr.Off_holder ~name:"kv" () in
  Kvstore.put kv1 ~key:10 "ten";
  Kvstore.put kv1 ~key:20 "twenty";
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:91 ~store () in
  let r2 = Machine.open_region m2 rid in
  let os2 = Objstore.attach m2 r2 in
  let kv2 = Kvstore.attach os2 ~repr:Repr.Off_holder ~name:"kv" in
  Alcotest.(check (option string)) "value survives" (Some "twenty")
    (Kvstore.get kv2 ~key:20);
  check "size survives" 2 (Kvstore.size kv2);
  check_bool "closed without Kvstore.close: the heap is swept" true
    (Core.Metrics.get (Machine.metrics m2) "alloc.recovered_blocks" > 0);
  (* Still writable in the new run. *)
  Kvstore.put kv2 ~key:30 "thirty";
  check "extended" 3 (Kvstore.size kv2)

let test_kv_clean_close () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:96 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 16) in
  let os1 = Objstore.create m1 (Machine.open_region m1 rid) ~log_cap:2048 () in
  let kv1 = Kvstore.create os1 ~repr:Repr.Riv ~name:"kv" ~buckets:8 () in
  for k = 1 to 20 do
    Kvstore.put kv1 ~key:k (String.make (k * 5) 'v')
  done;
  for k = 1 to 20 do
    if k mod 3 = 0 then ignore (Kvstore.delete kv1 ~key:k)
  done;
  Kvstore.close kv1;
  check_bool "a closed store refuses puts" true
    (try Kvstore.put kv1 ~key:1 "late"; false with Invalid_argument _ -> true);
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:97 ~store () in
  let os2 = Objstore.attach m2 (Machine.open_region m2 rid) in
  let kv2 = Kvstore.attach os2 ~repr:Repr.Riv ~name:"kv" in
  check "no heap sweep" 0
    (Core.Metrics.get (Machine.metrics m2) "alloc.recovered_blocks");
  Objstore.heap_check os2;
  for k = 1 to 20 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d" k)
      (if k mod 3 = 0 then None else Some (String.make (k * 5) 'v'))
      (Kvstore.get kv2 ~key:k)
  done;
  (* An allocation that fails inside put aborts its transaction: the
     store still closes cleanly and reopens without a sweep. *)
  check_bool "put beyond the heap fails" true
    (try Kvstore.put kv2 ~key:99 (String.make 100_000 'x'); false
     with Nvmpi_palloc.Palloc.Out_of_memory _ -> true);
  Kvstore.close kv2;
  Machine.close_region m2 rid;
  let m3 = Machine.create ~seed:98 ~store () in
  let os3 = Objstore.attach m3 (Machine.open_region m3 rid) in
  let kv3 = Kvstore.attach os3 ~repr:Repr.Riv ~name:"kv" in
  check "no heap sweep after the failed put" 0
    (Core.Metrics.get (Machine.metrics m3) "alloc.recovered_blocks");
  Objstore.heap_check os3;
  for k = 1 to 20 do
    Alcotest.(check (option string))
      (Printf.sprintf "key %d after the failed put" k)
      (if k mod 3 = 0 then None else Some (String.make (k * 5) 'v'))
      (Kvstore.get kv3 ~key:k)
  done;
  Alcotest.(check (option string)) "the failed put left no key" None
    (Kvstore.get kv3 ~key:99)

let test_kv_crash_recovery () =
  let store = Store.create () in
  let m1 = Machine.create ~seed:92 ~store () in
  let rid = Machine.create_region m1 ~size:(1 lsl 22) in
  let r1 = Machine.open_region m1 rid in
  let os1 = Objstore.create m1 r1 () in
  let kv1 = Kvstore.create os1 ~repr:Repr.Riv ~name:"kv" () in
  Kvstore.put kv1 ~key:1 "before";
  (* Crash in the middle of an overwrite AND of a fresh insert. *)
  Kvstore.simulate_crash_during_put kv1 ~key:1 "torn";
  Machine.close_region m1 rid;
  let m2 = Machine.create ~seed:93 ~store () in
  let r2 = Machine.open_region m2 rid in
  let os2 = Objstore.attach m2 r2 in
  let kv2 = Kvstore.attach os2 ~repr:Repr.Riv ~name:"kv" in
  Alcotest.(check (option string)) "old value recovered" (Some "before")
    (Kvstore.get kv2 ~key:1);
  Kvstore.simulate_crash_during_put kv2 ~key:99 "phantom";
  Machine.close_region m2 rid;
  let m3 = Machine.create ~seed:94 ~store () in
  let r3 = Machine.open_region m3 rid in
  let os3 = Objstore.attach m3 r3 in
  let kv3 = Kvstore.attach os3 ~repr:Repr.Riv ~name:"kv" in
  Alcotest.(check (option string)) "phantom insert rolled back" None
    (Kvstore.get kv3 ~key:99);
  check "size consistent" 1 (Kvstore.size kv3)

let test_kv_all_reprs () =
  List.iter
    (fun repr ->
      let _, _, kv = fresh_kv ~repr () in
      Kvstore.put kv ~key:7 "seven";
      Alcotest.(check (option string))
        (Repr.to_string repr)
        (Some "seven") (Kvstore.get kv ~key:7))
    [ Repr.Normal; Repr.Off_holder; Repr.Riv; Repr.Fat; Repr.Fat_cached;
      Repr.Based; Repr.Packed_fat ]

let test_kv_iterate_complete () =
  let _, _, kv = fresh_kv () in
  for k = 1 to 30 do
    Kvstore.put kv ~key:k (String.make k 'x')
  done;
  let seen = Hashtbl.create 30 in
  Kvstore.iter kv (fun ~key ~value ->
      check ("len of " ^ string_of_int key) key (String.length value);
      Hashtbl.replace seen key ());
  check "iterated all" 30 (Hashtbl.length seen);
  Alcotest.(check (list int)) "keys sorted" (List.init 30 (fun i -> i + 1))
    (Kvstore.keys kv)

let test_kv_attach_wrong_root () =
  let store = Store.create () in
  let m = Machine.create ~seed:95 ~store () in
  let r = Machine.open_region m (Machine.create_region m ~size:(1 lsl 22)) in
  let os = Objstore.create m r () in
  check_bool "missing root" true
    (try
       ignore (Kvstore.attach os ~repr:Repr.Riv ~name:"nope");
       false
     with Failure _ -> true)

let test_wordcount_empty_stream () =
  let _, _, _, nd = fresh_node () in
  let result = Wordcount.count_words nd ~repr:Repr.Riv ~name:"wc" [||] in
  check "no words" 0 result.Wordcount.distinct;
  check "lookup in empty" 0 (Wordcount.lookup nd ~repr:Repr.Riv ~name:"wc" "x")

let prop_kv_matches_hashtbl =
  QCheck2.Test.make ~name:"kvstore matches a reference map" ~count:30
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (pair (int_range 0 2) (pair (int_range 1 20) (string_size (int_range 0 20)))))
    (fun ops ->
      let _, _, kv = fresh_kv ~buckets:4 () in
      let reference = Hashtbl.create 16 in
      List.iter
        (fun (op, (k, v)) ->
          match op with
          | 0 | 1 ->
              Kvstore.put kv ~key:k v;
              Hashtbl.replace reference k v
          | _ ->
              let a = Kvstore.delete kv ~key:k in
              let b = Hashtbl.mem reference k in
              Hashtbl.remove reference k;
              if a <> b then failwith "delete mismatch")
        ops;
      Kvstore.size kv = Hashtbl.length reference
      && Hashtbl.fold
           (fun k v acc -> acc && Kvstore.get kv ~key:k = Some v)
           reference true)

let () =
  Alcotest.run "apps"
    [
      ( "text-gen",
        [
          Alcotest.test_case "vocabulary distinct" `Quick
            test_vocabulary_distinct;
          Alcotest.test_case "vocabulary deterministic" `Quick
            test_vocabulary_deterministic;
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "word stream" `Quick test_words_stream;
          Alcotest.test_case "reference counts" `Quick test_reference_counts;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "roundtrip" `Quick test_key_encoding_roundtrip;
          Alcotest.test_case "rejects" `Quick test_key_encoding_rejects;
          QCheck_alcotest.to_alcotest prop_key_injective;
        ] );
      ( "wordcount",
        [
          Alcotest.test_case "matches reference" `Quick
            test_wordcount_matches_reference;
          Alcotest.test_case "all reprs agree" `Slow
            test_wordcount_all_reprs_agree;
          Alcotest.test_case "incremental" `Quick test_wordcount_incremental;
          Alcotest.test_case "survives remap" `Quick
            test_wordcount_survives_remap;
        ] );
      ( "kvstore",
        [
          Alcotest.test_case "basics" `Quick test_kv_basics;
          Alcotest.test_case "empty + large values" `Quick
            test_kv_empty_and_large_values;
          Alcotest.test_case "collisions" `Quick test_kv_collisions;
          Alcotest.test_case "overwrite storm reclaims" `Quick
            test_kv_overwrite_storm;
          Alcotest.test_case "survives remap" `Quick test_kv_survives_remap;
          Alcotest.test_case "clean close" `Quick test_kv_clean_close;
          Alcotest.test_case "crash recovery" `Quick test_kv_crash_recovery;
          Alcotest.test_case "all representations" `Quick test_kv_all_reprs;
          Alcotest.test_case "iterate complete" `Quick test_kv_iterate_complete;
          Alcotest.test_case "attach wrong root" `Quick
            test_kv_attach_wrong_root;
          Alcotest.test_case "wordcount empty stream" `Quick
            test_wordcount_empty_stream;
          QCheck_alcotest.to_alcotest prop_kv_matches_hashtbl;
        ] );
    ]
