module Memsim = Core.Memsim
module Vaddr = Core.Kinds.Vaddr

(* Tests bless literal addresses at the Figure 8 trust boundary. *)
let va = Vaddr.v

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fresh ?(base = 0x1000) ?(size = 0x10000) () =
  let m = Memsim.create () in
  let base = va base in
  Memsim.map m ~addr:base ~size;
  (m, base)

let test_roundtrip_sizes () =
  let m, base = fresh () in
  Memsim.store8 m base 0xAB;
  check "load8" 0xAB (Memsim.load8 m base);
  Memsim.store16 m (Vaddr.add base 2) 0xBEEF;
  check "load16" 0xBEEF (Memsim.load16 m (Vaddr.add base 2));
  Memsim.store32 m (Vaddr.add base 4) 0xDEADBEEF;
  check "load32" 0xDEADBEEF (Memsim.load32 m (Vaddr.add base 4));
  Memsim.store64 m (Vaddr.add base 8) 0x123456789ABCDEF;
  check "load64" 0x123456789ABCDEF (Memsim.load64 m (Vaddr.add base 8))

let test_negative_int64 () =
  let m, base = fresh () in
  Memsim.store64 m base (-42);
  check "negative" (-42) (Memsim.load64 m base);
  Memsim.store64 m base min_int;
  check "min_int" min_int (Memsim.load64 m base)

let test_zero_fill () =
  let m, base = fresh () in
  check "untouched page reads zero" 0 (Memsim.load64 m (Vaddr.add base 0x800))

let test_truncation () =
  let m, base = fresh () in
  Memsim.store8 m base 0x1FF;
  check "store8 truncates" 0xFF (Memsim.load8 m base);
  Memsim.store16 m base 0x1FFFF;
  check "store16 truncates" 0xFFFF (Memsim.load16 m base)

let test_unmapped_faults () =
  let m, _ = fresh () in
  check_bool "fault"
    true
    (try
       ignore (Memsim.load64 m (va 0x999998));
       false
     with Memsim.Fault _ -> true)

let test_misaligned_faults () =
  let m, base = fresh () in
  check_bool "misaligned 64" true
    (try
       ignore (Memsim.load64 m (Vaddr.add base 4));
       false
     with Memsim.Fault _ -> true);
  check_bool "misaligned 16" true
    (try
       Memsim.store16 m (Vaddr.add base 1) 3;
       false
     with Memsim.Fault _ -> true)

let test_map_overlap_rejected () =
  let m, base = fresh () in
  check_bool "overlap rejected" true
    (try
       Memsim.map m ~addr:(Vaddr.add base 0x100) ~size:16;
       false
     with Invalid_argument _ -> true)

let test_unmap () =
  let m, base = fresh () in
  Memsim.store64 m base 7;
  Memsim.unmap m ~addr:base;
  check_bool "unmapped faults" true
    (try
       ignore (Memsim.load64 m base);
       false
     with Memsim.Fault _ -> true);
  (* Remapping gives a zeroed page again. *)
  Memsim.map m ~addr:base ~size:0x1000;
  check "zero after remap" 0 (Memsim.load64 m base)

let test_blit () =
  let m, base = fresh () in
  let src = Bytes.of_string "hello, simulated world.." in
  Memsim.blit_from_bytes m ~addr:base src;
  let out = Memsim.blit_to_bytes m ~addr:base ~len:(Bytes.length src) in
  Alcotest.(check string) "blit roundtrip" (Bytes.to_string src)
    (Bytes.to_string out)

let test_blit_unaligned () =
  let m, base = fresh () in
  let src = Bytes.of_string "abcdefghijk" in
  Memsim.blit_from_bytes m ~addr:(Vaddr.add base 3) src;
  let out = Memsim.blit_to_bytes m ~addr:(Vaddr.add base 3) ~len:11 in
  Alcotest.(check string) "unaligned blit" "abcdefghijk" (Bytes.to_string out)

let test_blit_cross_page () =
  let m = Memsim.create () in
  Memsim.map m ~addr:(va 0x1000) ~size:0x3000;
  let src = Bytes.make 0x1800 'x' in
  Bytes.set src 0x17FF 'y';
  Memsim.blit_from_bytes m ~addr:(va 0x1800) src;
  check "last byte" (Char.code 'y') (Memsim.load8 m (va (0x1800 + 0x17FF)))

let test_observers () =
  let m, base = fresh () in
  let loads = ref 0 and stores = ref 0 in
  Memsim.add_observer m (fun ~write ~addr:_ ~size:_ ->
      if write then incr stores else incr loads);
  Memsim.store64 m base 1;
  ignore (Memsim.load64 m base);
  ignore (Memsim.load8 m base);
  check "stores" 1 !stores;
  check "loads" 2 !loads

let test_stats () =
  let m, base = fresh () in
  let s = Memsim.stats m in
  let l0 = s.Memsim.loads in
  ignore (Memsim.load64 m base);
  ignore (Memsim.load64 m (Vaddr.add base 0x1000));
  check "loads counted" (l0 + 2) s.Memsim.loads;
  check_bool "pages materialized" true (s.Memsim.pages >= 2)

let test_high_addresses () =
  (* NV-space-like addresses near the top of the 62-bit space. *)
  let m = Memsim.create () in
  let base = va (Core.Layout.nv_start Core.Layout.default) in
  Memsim.map m ~addr:base ~size:0x2000;
  Memsim.store64 m (Vaddr.add base 0x100) 0xCAFE;
  check "high addr" 0xCAFE (Memsim.load64 m (Vaddr.add base 0x100))

let test_fill () =
  let m, base = fresh () in
  Memsim.fill m ~addr:base ~len:32 'z';
  check "fill" (Char.code 'z') (Memsim.load8 m (Vaddr.add base 31));
  check "fill end" 0 (Memsim.load8 m (Vaddr.add base 32))

let test_sized_dispatch () =
  let m, base = fresh () in
  List.iter
    (fun size ->
      Memsim.store_sized m ~size base 0x7F;
      check (Printf.sprintf "sized %d" size) 0x7F
        (Memsim.load_sized m ~size base))
    [ 1; 2; 4; 8 ];
  check_bool "bad size rejected" true
    (try
       ignore (Memsim.load_sized m ~size:3 base);
       false
     with Invalid_argument _ -> true)

let test_multiple_observers () =
  let m, base = fresh () in
  let a = ref 0 and b = ref 0 in
  Memsim.add_observer m (fun ~write:_ ~addr:_ ~size:_ -> incr a);
  Memsim.add_observer m (fun ~write:_ ~addr:_ ~size:_ -> incr b);
  ignore (Memsim.load64 m base);
  check "first observer" 1 !a;
  check "second observer" 1 !b

let test_many_observers_in_order () =
  (* The growable observer array must preserve registration order and
     notify every observer (regression for the former quadratic list
     append). *)
  let m, base = fresh () in
  let seen = ref [] in
  for i = 0 to 9 do
    Memsim.add_observer m (fun ~write:_ ~addr:_ ~size:_ ->
        seen := i :: !seen)
  done;
  ignore (Memsim.load64 m base);
  Alcotest.(check (list int))
    "all observers fire in registration order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !seen)

let test_map_after_unmap_overlapping () =
  (* Regression: unmap must really drop the range (and its pages), so an
     overlapping range can be mapped afterwards and reads back zeroed. *)
  let m = Memsim.create () in
  Memsim.map m ~addr:(va 0x4000) ~size:0x3000;
  Memsim.store64 m (va 0x5000) 0xFEED;
  Memsim.unmap m ~addr:(va 0x4000);
  (* Overlaps the dropped [0x4000, 0x7000) range with a shifted window. *)
  Memsim.map m ~addr:(va 0x5000) ~size:0x3000;
  check "remapped page reads zero" 0 (Memsim.load64 m (va 0x5000));
  Memsim.store64 m (va 0x7008) 0xBEE;
  check "new tail page works" 0xBEE (Memsim.load64 m (va 0x7008));
  check_bool "old head page is gone" true
    (try
       ignore (Memsim.load64 m (va 0x4000));
       false
     with Memsim.Fault _ -> true)

let test_mappings_listing () =
  let m = Memsim.create () in
  Memsim.map m ~addr:(va 0x1000) ~size:0x1000;
  Memsim.map m ~addr:(va 0x10000) ~size:0x2000;
  Alcotest.(check (list (pair int int)))
    "sorted ranges"
    [ (0x1000, 0x1000); (0x10000, 0x2000) ]
    (List.map (fun (a, n) -> ((a : Vaddr.t :> int), n)) (Memsim.mappings m));
  check "page size" 4096 (Memsim.page_size m)

let prop_store_load_64 =
  QCheck2.Test.make ~name:"64-bit store/load roundtrip at random offsets"
    ~count:500
    QCheck2.Gen.(pair (int_range 0 8190) int)
    (fun (woff, v) ->
      let m, base = fresh () in
      let a = Vaddr.add base (woff * 8) in
      Memsim.store64 m a v;
      Memsim.load64 m a = v)

let prop_blit_arbitrary_bytes =
  QCheck2.Test.make ~name:"blit roundtrips arbitrary bytes (incl. high bits)"
    ~count:200
    QCheck2.Gen.(pair (string_size (int_range 1 9000)) (int_range 0 64))
    (fun (payload, off) ->
      let m = Memsim.create () in
      Memsim.map m ~addr:(va 0x1000) ~size:0x4000;
      let b = Bytes.of_string payload in
      Memsim.blit_from_bytes m ~addr:(va (0x1000 + off)) b;
      Bytes.equal b
        (Memsim.blit_to_bytes m ~addr:(va (0x1000 + off)) ~len:(Bytes.length b)))

(* The TLB'd fast path must be observationally identical to a reference
   slow path (a byte map plus a mapped-slot table) over arbitrary
   interleavings of map / unmap / store / load — unmap in particular
   must invalidate the last-page cache. Four disjoint page-aligned
   slots keep map overlap decidable per slot. *)
let prop_tlb_matches_reference =
  let slot_base s = 0x4000 * (s + 1) in
  let slot_size = 0x2000 in
  let op_gen =
    QCheck2.Gen.(
      let slot = int_range 0 3 in
      let off = int_range 0 (slot_size - 1) in
      oneof
        [
          map (fun s -> `Map s) slot;
          map (fun s -> `Unmap s) slot;
          map3 (fun s o v -> `Store (s, o, v)) slot off (int_range 0 255);
          map2 (fun s o -> `Load (s, o)) slot off;
        ])
  in
  QCheck2.Test.make
    ~name:"TLB'd fast path matches the reference model on random traces"
    ~count:300
    QCheck2.Gen.(list_size (int_range 10 200) op_gen)
    (fun ops ->
      let m = Memsim.create () in
      let mapped = Array.make 4 false in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      List.for_all
        (fun op ->
          match op with
          | `Map s ->
              let expect_ok = not mapped.(s) in
              let got_ok =
                try
                  Memsim.map m ~addr:(va (slot_base s)) ~size:slot_size;
                  true
                with Invalid_argument _ -> false
              in
              if got_ok then mapped.(s) <- true;
              got_ok = expect_ok
          | `Unmap s ->
              let expect_ok = mapped.(s) in
              let got_ok =
                try
                  Memsim.unmap m ~addr:(va (slot_base s));
                  true
                with Invalid_argument _ -> false
              in
              if got_ok then begin
                mapped.(s) <- false;
                for a = slot_base s to slot_base s + slot_size - 1 do
                  Hashtbl.remove model a
                done
              end;
              got_ok = expect_ok
          | `Store (s, o, v) -> (
              let a = slot_base s + o in
              match Memsim.store8 m (va a) v with
              | () ->
                  Hashtbl.replace model a v;
                  mapped.(s)
              | exception Memsim.Fault _ -> not mapped.(s))
          | `Load (s, o) -> (
              let a = slot_base s + o in
              match Memsim.load8 m (va a) with
              | got ->
                  mapped.(s)
                  && got
                     = Option.value ~default:0 (Hashtbl.find_opt model a)
              | exception Memsim.Fault _ -> not mapped.(s)))
        ops)

(* Region images ---------------------------------------------------------- *)

module Page_image = Memsim.Page_image

let page = Page_image.page_size

(* A 1 MiB image with bytes on two of its 256 pages. *)
let sparse_image () =
  let img = Page_image.create (1 lsl 20) in
  Page_image.set_int64_le img 8 0x1111L;
  Page_image.set_int64_le img 700_000 0x2222L;
  img

let test_image_copies_present_pages () =
  let m, base = fresh ~base:0x100000 ~size:(1 lsl 20) () in
  let img = sparse_image () in
  check "two pages present" 2 (Page_image.present img);
  Memsim.install m ~addr:base img;
  check "install materializes the present pages only" 2
    (Memsim.stats m).Memsim.pages;
  check "first word" 0x1111 (Memsim.load64 m (Vaddr.add base 8));
  check "second word" 0x2222 (Memsim.load64 m (Vaddr.add base 700_000));
  check "absent page reads zero" 0 (Memsim.load64 m (Vaddr.add base 0x8000));
  (* Memory owns its pages: storing does not reach the image. *)
  Memsim.store64 m (Vaddr.add base 8) 0x3333;
  check "image unchanged by a store" 0x1111
    (Int64.to_int (Page_image.get_int64_le img 8));
  let out = Page_image.create (1 lsl 20) in
  Memsim.extract m ~addr:base out;
  check "extract keeps the touched pages" 3 (Page_image.present out);
  check "extracted word" 0x3333 (Int64.to_int (Page_image.get_int64_le out 8));
  (* ... and the image owns its pages: writing it does not reach memory. *)
  Page_image.set_int64_le out 8 0x4444L;
  check "memory unchanged by the image" 0x3333
    (Memsim.load64 m (Vaddr.add base 8))

let test_image_install_zeroes_absent () =
  let m, base = fresh ~size:(2 * page) () in
  Memsim.store64 m (Vaddr.add base (page + 16)) 99;
  Memsim.install m ~addr:base (Page_image.create (2 * page));
  check "absent slot zeroes the page under it" 0
    (Memsim.load64 m (Vaddr.add base (page + 16)))

let test_image_counts () =
  let m, base = fresh ~size:(4 * page) () in
  let s = Memsim.stats m in
  let img = Page_image.create ((3 * page) + 100) in
  Page_image.set_int64_le img 0 7L;
  Memsim.install m ~addr:base img;
  Memsim.extract m ~addr:base img;
  check "install counts one store per slot" 4 s.Memsim.stores;
  check "extract counts one load per slot" 4 s.Memsim.loads;
  Memsim.poke_image m ~addr:base img;
  ignore (Memsim.peek_image m ~addr:base ~size:(Page_image.size img));
  check "debug port counts no store" 4 s.Memsim.stores;
  check "debug port counts no load" 4 s.Memsim.loads

let test_image_rejects () =
  let m, base = fresh () in
  let img = Page_image.create page in
  Alcotest.check_raises "base must be page-aligned"
    (Invalid_argument "Memsim.install: base not page-aligned") (fun () ->
      Memsim.install m ~addr:(Vaddr.add base 8) img);
  check_bool "unmapped range faults" true
    (try
       Memsim.install m ~addr:(va 0x100000) img;
       false
     with Memsim.Fault _ -> true);
  Alcotest.check_raises "image writes stay inside the image"
    (Invalid_argument "Memsim.Page_image: range outside the image") (fun () ->
      Page_image.set_int64_le img (page - 4) 1L)

let test_drop_zero_page () =
  let m, base = fresh () in
  let s = Memsim.stats m in
  Memsim.store64 m base 5;
  Memsim.drop_zero_page m base;
  check "a page holding data stays" 1 s.Memsim.pages;
  Memsim.store64 m base 0;
  Memsim.drop_zero_page m base;
  check "an all-zero page goes" 0 s.Memsim.pages;
  (* The dropped page was the TLB's: a store after the drop must land
     in a fresh page that later accesses find. *)
  Memsim.store64 m base 7;
  ignore (Memsim.load64 m (Vaddr.add base page));
  check "store after the drop survives" 7 (Memsim.load64 m base)

(* Flat bytes with some zero pages, a size that is often not a multiple
   of the page size, and values with the high bit set. *)
let gen_flat =
  QCheck2.Gen.(
    let* pages = int_range 1 4 and* tail = int_range 0 (page - 1) in
    let size = ((pages - 1) * page) + tail + 1 in
    let* dense = array_size (return pages) bool in
    let* seed = int in
    let st = Random.State.make [| seed |] in
    return
      (Bytes.init size (fun i ->
           if dense.(i / page) && Random.State.int st 4 = 0 then
             Char.chr (Random.State.int st 256)
           else '\000')))

let prop_image_copies_match_blits =
  QCheck2.Test.make
    ~name:"image install/extract match flat blits on arbitrary bytes"
    ~count:100 gen_flat (fun flat ->
      let len = Bytes.length flat in
      let img = Page_image.of_bytes flat in
      let m, base = fresh ~size:(4 * page) () in
      Memsim.install m ~addr:base img;
      let out = Page_image.create len in
      Memsim.extract m ~addr:base out;
      Bytes.equal (Page_image.to_bytes img) flat
      && Bytes.equal (Memsim.blit_to_bytes m ~addr:base ~len) flat
      && Bytes.equal (Page_image.to_bytes out) flat
      && Bytes.equal
           (Page_image.to_bytes (Memsim.peek_image m ~addr:base ~size:len))
           flat)

let prop_disjoint_writes =
  QCheck2.Test.make ~name:"writes to distinct words do not interfere"
    ~count:200
    QCheck2.Gen.(
      pair (pair (int_range 0 1000) (int_range 0 1000)) (pair int int))
    (fun ((w1, w2), (v1, v2)) ->
      QCheck2.assume (w1 <> w2);
      let m, base = fresh () in
      Memsim.store64 m (Vaddr.add base (w1 * 8)) v1;
      Memsim.store64 m (Vaddr.add base (w2 * 8)) v2;
      Memsim.load64 m (Vaddr.add base (w1 * 8)) = v1
      && Memsim.load64 m (Vaddr.add base (w2 * 8)) = v2)

let () =
  Alcotest.run "memsim"
    [
      ( "accesses",
        [
          Alcotest.test_case "typed roundtrips" `Quick test_roundtrip_sizes;
          Alcotest.test_case "negative 64-bit values" `Quick test_negative_int64;
          Alcotest.test_case "demand-zero pages" `Quick test_zero_fill;
          Alcotest.test_case "narrow stores truncate" `Quick test_truncation;
          Alcotest.test_case "high addresses" `Quick test_high_addresses;
          Alcotest.test_case "fill" `Quick test_fill;
        ] );
      ( "faults",
        [
          Alcotest.test_case "unmapped access faults" `Quick
            test_unmapped_faults;
          Alcotest.test_case "misaligned access faults" `Quick
            test_misaligned_faults;
          Alcotest.test_case "overlapping map rejected" `Quick
            test_map_overlap_rejected;
          Alcotest.test_case "unmap drops pages" `Quick test_unmap;
          Alcotest.test_case "map after unmap of overlapping range" `Quick
            test_map_after_unmap_overlapping;
        ] );
      ( "bulk",
        [
          Alcotest.test_case "blit roundtrip" `Quick test_blit;
          Alcotest.test_case "unaligned blit" `Quick test_blit_unaligned;
          Alcotest.test_case "cross-page blit" `Quick test_blit_cross_page;
        ] );
      ( "observation",
        [
          Alcotest.test_case "observers see accesses" `Quick test_observers;
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "sized dispatch" `Quick test_sized_dispatch;
          Alcotest.test_case "multiple observers" `Quick
            test_multiple_observers;
          Alcotest.test_case "many observers in order" `Quick
            test_many_observers_in_order;
          Alcotest.test_case "mappings listing" `Quick test_mappings_listing;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_store_load_64;
          QCheck_alcotest.to_alcotest prop_blit_arbitrary_bytes;
          QCheck_alcotest.to_alcotest prop_tlb_matches_reference;
          QCheck_alcotest.to_alcotest prop_disjoint_writes;
          QCheck_alcotest.to_alcotest prop_image_copies_match_blits;
        ] );
      ( "images",
        [
          Alcotest.test_case "copies move present pages only" `Quick
            test_image_copies_present_pages;
          Alcotest.test_case "install zeroes pages under absent slots" `Quick
            test_image_install_zeroes_absent;
          Alcotest.test_case "counted and debug-port copies" `Quick
            test_image_counts;
          Alcotest.test_case "rejects" `Quick test_image_rejects;
          Alcotest.test_case "drop_zero_page" `Quick test_drop_zero_page;
        ] );
    ]
