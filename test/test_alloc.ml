module Freelist = Core.Freelist
module Memsim = Core.Memsim
module Vaddr = Core.Kinds.Vaddr

(* Tests drive the typed API with host integers: [va] blesses a literal
   at the Figure 8 trust boundary, [ia] reads an address back out. *)
let va = Vaddr.v
let ia (a : Vaddr.t) = (a :> int)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A bare memory charging a cache model of its own. *)
let memory () =
  let timing =
    Core.Timing.create ~clock:(Core.Clock.create ()) ~is_nvm:(fun _ -> false) ()
  in
  Memsim.create ~timing ()

let fresh ?(size = 64 * 1024) () =
  let mem = memory () in
  Memsim.map mem ~addr:(va 0x1000) ~size;
  (mem, Freelist.init mem ~lo:(va 0x1000) ~hi:(va (0x1000 + size)))

let test_basic_alloc_free () =
  let _, fl = fresh () in
  let a = Freelist.alloc fl 100 in
  let b = Freelist.alloc fl 100 in
  check_bool "distinct" true (ia b >= ia a + 100 || ia a >= ia b + 100);
  check_bool "aligned" true (ia a land 7 = 0 && ia b land 7 = 0);
  Freelist.check fl;
  Freelist.free fl a;
  Freelist.check fl;
  Freelist.free fl b;
  Freelist.check fl;
  let alloc_blocks, free_blocks = Freelist.block_count fl in
  check "no allocated blocks" 0 alloc_blocks;
  check "fully coalesced" 1 free_blocks

let test_reuse_after_free () =
  let _, fl = fresh () in
  let a = Freelist.alloc fl 64 in
  Freelist.free fl a;
  let b = Freelist.alloc fl 64 in
  check "freed block reused" (ia a) (ia b)

let test_usable_size () =
  let _, fl = fresh () in
  let a = Freelist.alloc fl 30 in
  check_bool "usable >= requested" true (Freelist.usable_size fl a >= 30);
  check_bool "usable aligned" true (Freelist.usable_size fl a land 7 = 0)

let test_split_and_coalesce_middle () =
  let _, fl = fresh () in
  let blocks = Array.init 8 (fun _ -> Freelist.alloc fl 64) in
  (* Free the middle, then its neighbours; everything must coalesce. *)
  Freelist.free fl blocks.(3);
  Freelist.check fl;
  Freelist.free fl blocks.(4);
  Freelist.check fl;
  Freelist.free fl blocks.(2);
  Freelist.check fl;
  let _, free_blocks = Freelist.block_count fl in
  (* blocks 2,3,4 coalesced into one + the big tail block. *)
  check "coalesced run" 2 free_blocks

let test_out_of_memory () =
  let _, fl = fresh ~size:4096 () in
  check_bool "oom raised" true
    (try
       ignore (Freelist.alloc fl 100_000);
       false
     with Freelist.Out_of_memory _ -> true);
  (* The heap stays usable after a failed allocation. *)
  let a = Freelist.alloc fl 64 in
  Freelist.free fl a;
  Freelist.check fl

let test_double_free_detected () =
  let _, fl = fresh () in
  let a = Freelist.alloc fl 64 in
  Freelist.free fl a;
  check_bool "double free" true
    (try
       Freelist.free fl a;
       false
     with Freelist.Corrupted _ -> true)

let test_bogus_free_detected () =
  let _, fl = fresh () in
  let _ = Freelist.alloc fl 64 in
  check_bool "bogus pointer" true
    (try
       Freelist.free fl (va 0x1008);
       false
     with Freelist.Corrupted _ -> true)

let test_attach_after_move () =
  (* Format a heap, copy its bytes elsewhere (as if the region were
     remapped), re-attach: all offsets must still make sense. *)
  let mem = memory () in
  Memsim.map mem ~addr:(va 0x1000) ~size:8192;
  Memsim.map mem ~addr:(va 0x100000) ~size:8192;
  let fl = Freelist.init mem ~lo:(va 0x1000) ~hi:(va (0x1000 + 8192)) in
  let a = Freelist.alloc fl 64 in
  let b = Freelist.alloc fl 128 in
  Freelist.free fl a;
  let image = Memsim.blit_to_bytes mem ~addr:(va 0x1000) ~len:8192 in
  Memsim.blit_from_bytes mem ~addr:(va 0x100000) image;
  let fl' = Freelist.attach mem ~lo:(va 0x100000) ~hi:(va (0x100000 + 8192)) in
  Freelist.check fl';
  (* The same logical blocks exist at the new base. *)
  Freelist.free fl' (va (ia b - 0x1000 + 0x100000));
  Freelist.check fl';
  let alloc_blocks, _ = Freelist.block_count fl' in
  check "all freed after move" 0 alloc_blocks

let test_free_bytes_monotonic () =
  let _, fl = fresh () in
  let f0 = Freelist.free_bytes fl in
  let a = Freelist.alloc fl 256 in
  let f1 = Freelist.free_bytes fl in
  check_bool "alloc shrinks free bytes" true (f1 < f0);
  Freelist.free fl a;
  check "free restores bytes" f0 (Freelist.free_bytes fl)

let test_iter_blocks_tiles_heap () =
  let _, fl = fresh ~size:16384 () in
  let _ = Freelist.alloc fl 100 in
  let _ = Freelist.alloc fl 200 in
  let total = ref 0 in
  Freelist.iter_blocks fl (fun ~addr:_ ~size ~free:_ ->
      total := !total + size + 16);
  check "blocks tile heap" (16384 - 16) !total

(* Property: random alloc/free interleavings keep all invariants. *)
let prop_random_ops =
  QCheck2.Test.make ~name:"random alloc/free keeps heap invariants" ~count:60
    QCheck2.Gen.(list_size (int_range 10 120) (int_range 1 400))
    (fun sizes ->
      let _, fl = fresh ~size:(256 * 1024) () in
      let live = ref [] in
      let st = Random.State.make [| List.length sizes |] in
      List.iter
        (fun sz ->
          (* Interleave: sometimes free a random live block first. *)
          (if !live <> [] && Random.State.bool st then begin
             let i = Random.State.int st (List.length !live) in
             let a = List.nth !live i in
             Freelist.free fl a;
             live := List.filteri (fun j _ -> j <> i) !live
           end);
          let a = Freelist.alloc fl sz in
          live := a :: !live;
          Freelist.check fl)
        sizes;
      List.iter (fun a -> Freelist.free fl a) !live;
      Freelist.check fl;
      fst (Freelist.block_count fl) = 0)

(* Differential property: drive the freelist and a pure reference model
   with the same operation trace and demand they agree after every step.
   The model is just the set of live (payload address, usable size)
   pairs plus its own disjointness/bounds judgement — it shares no code
   with the allocator, so any divergence (a lost block, a double-mapped
   byte, a block leaking past the heap) fails the property, and QCheck2's
   integrated shrinking reduces the trace to a minimal counterexample. *)
let heap_lo = 0x1000
let heap_size = 256 * 1024

let model_ok live =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) live in
  let in_bounds (a, s) = a >= heap_lo && a + s <= heap_lo + heap_size in
  let rec disjoint = function
    | (a, s) :: ((b, _) :: _ as rest) -> a + s <= b && disjoint rest
    | _ -> true
  in
  List.for_all in_bounds sorted && disjoint sorted

let fl_allocated fl =
  let out = ref [] in
  Freelist.iter_blocks fl (fun ~addr ~size ~free ->
      if not free then out := (ia addr, size) :: !out);
  List.sort compare !out

let prop_differential_model =
  QCheck2.Test.make ~name:"freelist agrees with pure reference model"
    ~count:80
    QCheck2.Gen.(list_size (int_range 1 150) (int_range 0 2000))
    (fun trace ->
      let _, fl = fresh ~size:heap_size () in
      let live = ref [] in
      let step n =
        (if n mod 4 = 0 && !live <> [] then begin
           (* Free the (n/4 mod live)-th live block, model first. *)
           let i = n / 4 mod List.length !live in
           let a, _ = List.nth !live i in
           live := List.filteri (fun j _ -> j <> i) !live;
           Freelist.free fl (va a)
         end
         else
           let sz = 1 + (n mod 500) in
           let a = Freelist.alloc fl sz in
           let us = Freelist.usable_size fl a in
           if us < sz then failwith "usable_size below request";
           live := (ia a, us) :: !live);
        Freelist.check fl;
        if not (model_ok !live) then failwith "model invariant broken";
        (* The heap's allocated set must be exactly the model's. *)
        fl_allocated fl = List.sort compare !live
      in
      List.for_all step trace
      &&
      (List.iter (fun (a, _) -> Freelist.free fl (va a)) !live;
       Freelist.check fl;
       fl_allocated fl = []))

let prop_no_overlap =
  QCheck2.Test.make ~name:"live blocks never overlap" ~count:60
    QCheck2.Gen.(list_size (int_range 5 60) (int_range 1 300))
    (fun sizes ->
      let _, fl = fresh ~size:(256 * 1024) () in
      let blocks = List.map (fun sz -> (Freelist.alloc fl sz, sz)) sizes in
      List.for_all
        (fun (a, sa) ->
          List.for_all
            (fun (b, _) ->
              Vaddr.equal a b
              || ia b >= ia a + sa
              || ia a >= ia b + Freelist.usable_size fl b)
            blocks)
        blocks)

let () =
  Alcotest.run "alloc"
    [
      ( "freelist",
        [
          Alcotest.test_case "alloc/free/coalesce" `Quick test_basic_alloc_free;
          Alcotest.test_case "reuse after free" `Quick test_reuse_after_free;
          Alcotest.test_case "usable size" `Quick test_usable_size;
          Alcotest.test_case "middle coalescing" `Quick
            test_split_and_coalesce_middle;
          Alcotest.test_case "out of memory" `Quick test_out_of_memory;
          Alcotest.test_case "double free detected" `Quick
            test_double_free_detected;
          Alcotest.test_case "bogus free detected" `Quick
            test_bogus_free_detected;
          Alcotest.test_case "reattach after move" `Quick test_attach_after_move;
          Alcotest.test_case "free bytes accounting" `Quick
            test_free_bytes_monotonic;
          Alcotest.test_case "blocks tile heap" `Quick
            test_iter_blocks_tiles_heap;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_random_ops;
          QCheck_alcotest.to_alcotest prop_differential_model;
          QCheck_alcotest.to_alcotest prop_no_overlap;
        ] );
    ]
