module Memsim = Core.Memsim
module Metrics = Core.Metrics
module Vaddr = Core.Kinds.Vaddr
module Page_image = Memsim.Page_image

(* Tests bless literal addresses at the Figure 8 trust boundary. *)
let va = Vaddr.v

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* A bare memory charging a cache model of its own. *)
let memory ?metrics () =
  let timing =
    Core.Timing.create ~clock:(Core.Clock.create ()) ~is_nvm:(fun _ -> false) ()
  in
  Memsim.create ?metrics ~timing ()

let fresh ?metrics ?(base = 0x1000) ?(size = 0x10000) () =
  let m = memory ?metrics () in
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

(* Every misaligned typed access raises a [Fault] that names its
   address, its size and the reason, and writes nothing. *)
let test_misaligned_faults () =
  let m, base = fresh () in
  let fault name size f =
    let a = Vaddr.add base (size / 2) in
    match f a with
    | () -> Alcotest.failf "%s at offset %d did not fault" name (size / 2)
    | exception Memsim.Fault { addr; size = s; reason } ->
        check (name ^ " addr") (a :> int) addr;
        check (name ^ " size") size s;
        Alcotest.(check string) (name ^ " reason") "misaligned" reason
  in
  fault "load16" 2 (fun a -> ignore (Memsim.load16 m a));
  fault "load32" 4 (fun a -> ignore (Memsim.load32 m a));
  fault "load64" 8 (fun a -> ignore (Memsim.load64 m a));
  fault "store16" 2 (fun a -> Memsim.store16 m a (-1));
  fault "store32" 4 (fun a -> Memsim.store32 m a (-1));
  fault "store64" 8 (fun a -> Memsim.store64 m a (-1));
  check "no store wrote" 0 (Memsim.load64 m base);
  check "no page materialized" 0 (Memsim.pages m)

let test_map_overlap_rejected () =
  let m, base = fresh () in
  check_bool "overlap rejected" true
    (try
       Memsim.map m ~addr:(Vaddr.add base 0x100) ~size:16;
       false
     with Invalid_argument _ -> true)

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
  let m = memory () in
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
  let metrics = Metrics.create () in
  let m, base = fresh ~metrics () in
  let loads () = Metrics.get metrics "mem.loads" in
  let l0 = loads () in
  ignore (Memsim.load64 m base);
  ignore (Memsim.load64 m (Vaddr.add base 0x1000));
  check "loads counted" (l0 + 2) (loads ());
  check "loads materialize no page" 0 (Memsim.pages m);
  Memsim.store64 m base 1;
  check "a store materializes its page" 1 (Memsim.pages m)

let test_high_addresses () =
  (* NV-space-like addresses near the top of the 62-bit space. *)
  let m = memory () in
  let base = va (Core.Layout.nv_start Core.Layout.default) in
  Memsim.map m ~addr:base ~size:0x2000;
  Memsim.store64 m (Vaddr.add base 0x100) 0xCAFE;
  check "high addr" 0xCAFE (Memsim.load64 m (Vaddr.add base 0x100))

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
  (* Regression: evict must really drop the range, so an overlapping
     range can be mapped afterwards and reads back zeroed, while the
     closed image keeps its page. *)
  let m = memory () in
  let img = Page_image.create 0x3000 in
  Memsim.install m ~addr:(va 0x4000) img;
  Memsim.store64 m (va 0x5000) 0xFEED;
  Memsim.evict m ~addr:(va 0x4000);
  (* Overlaps the dropped [0x4000, 0x7000) range with a shifted window. *)
  Memsim.map m ~addr:(va 0x5000) ~size:0x3000;
  check "remapped page reads zero" 0 (Memsim.load64 m (va 0x5000));
  Memsim.store64 m (va 0x7008) 0xBEE;
  check "new tail page works" 0xBEE (Memsim.load64 m (va 0x7008));
  check "the image keeps its word" 0xFEED
    (Int64.to_int (Page_image.get_int64_le img 0x1000));
  check_bool "old head page is gone" true
    (try
       ignore (Memsim.load64 m (va 0x4000));
       false
     with Memsim.Fault _ -> true)

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
      let m = memory () in
      Memsim.map m ~addr:(va 0x1000) ~size:0x4000;
      let b = Bytes.of_string payload in
      Memsim.blit_from_bytes m ~addr:(va (0x1000 + off)) b;
      Bytes.equal b
        (Memsim.blit_to_bytes m ~addr:(va (0x1000 + off)) ~len:(Bytes.length b)))

(* The TLB'd fast path must be observationally identical to a reference
   slow path (a byte map plus a mapped-slot table) over arbitrary
   interleavings of install / evict / store / load — evict in particular
   must invalidate the TLB entries of its range. Each install maps a
   fresh image. Four disjoint page-aligned slots keep overlap decidable
   per slot. Slots 0 to 2 lie 64 pages apart in one 4 GiB segment, slot
   3 in the next segment at page 0x41 of it, where the segment bits the
   TLB index folds in send it to the entry of page 0x40: the first
   pages of all four contend for that entry. *)
let prop_tlb_matches_reference =
  let slot_base s =
    if s < 3 then 0x40000 * (s + 1) else (1 lsl 32) + 0x41000
  in
  let slot_size = 0x2000 in
  let op_gen =
    QCheck2.Gen.(
      let slot = int_range 0 3 in
      let off = int_range 0 (slot_size - 1) in
      oneof
        [
          map (fun s -> `Install s) slot;
          map (fun s -> `Evict s) slot;
          map3 (fun s o v -> `Store (s, o, v)) slot off (int_range 0 255);
          map2 (fun s o -> `Load (s, o)) slot off;
        ])
  in
  QCheck2.Test.make
    ~name:"TLB'd fast path matches the reference model on random traces"
    ~count:300
    QCheck2.Gen.(list_size (int_range 10 200) op_gen)
    (fun ops ->
      let m = memory () in
      let mapped = Array.make 4 false in
      let model : (int, int) Hashtbl.t = Hashtbl.create 64 in
      List.for_all
        (fun op ->
          match op with
          | `Install s ->
              let expect_ok = not mapped.(s) in
              let got_ok =
                try
                  Memsim.install m ~addr:(va (slot_base s))
                    (Page_image.create slot_size);
                  true
                with Invalid_argument _ -> false
              in
              if got_ok then mapped.(s) <- true;
              got_ok = expect_ok
          | `Evict s ->
              let expect_ok = mapped.(s) in
              let got_ok =
                try
                  Memsim.evict m ~addr:(va (slot_base s));
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

let page = Page_image.page_size

(* A 1 MiB image with bytes on two of its 256 pages. *)
let sparse_image () =
  let img = Page_image.create (1 lsl 20) in
  Page_image.set_int64_le img 8 0x1111L;
  Page_image.set_int64_le img 700_000 0x2222L;
  img

let test_image_copies_present_pages () =
  check "page size" 4096 page;
  let metrics = Metrics.create () in
  let m = memory ~metrics () in
  let base = va 0x100000 in
  let img = sparse_image () in
  check "two pages present" 2 (Page_image.present img);
  Memsim.install m ~addr:base img;
  check "install copies no page into memory" 0 (Memsim.pages m);
  check "first word" 0x1111 (Memsim.load64 m (Vaddr.add base 8));
  check "second word" 0x2222 (Memsim.load64 m (Vaddr.add base 700_000));
  check "absent page reads zero" 0 (Memsim.load64 m (Vaddr.add base 0x8000));
  check "the load left the slot absent" 2 (Page_image.present img);
  (* Memory maps the image's own pages: a store reaches the image ... *)
  Memsim.store64 m (Vaddr.add base 8) 0x3333;
  check "the image holds the store" 0x3333
    (Int64.to_int (Page_image.get_int64_le img 8));
  (* ... and a write to the image reaches memory. *)
  Page_image.set_int64_le img 700_000 0x4444L;
  check "memory reads the image's write" 0x4444
    (Memsim.load64 m (Vaddr.add base 700_000));
  (* A copy of the mapped image takes the present pages only, into pages
     of its own, and moves no counter. *)
  let counts () =
    (Metrics.get metrics "mem.loads", Metrics.get metrics "mem.stores")
  in
  let before = counts () in
  let out = Page_image.copy img in
  check_bool "the copy counts nothing" true (counts () = before);
  check "copy takes the present pages" 2 (Page_image.present out);
  check "copied word" 0x3333 (Int64.to_int (Page_image.get_int64_le out 8));
  Page_image.set_int64_le out 8 0x5555L;
  check "memory unchanged by the copy" 0x3333
    (Memsim.load64 m (Vaddr.add base 8));
  check "still no page of memory's own" 0 (Memsim.pages m)

(* An absent slot reads zero even where memory mapped a page before:
   the evicted image kept its page, and the TLB that held it was
   cleared. *)
let test_image_install_zeroes_absent () =
  let m = memory () in
  let base = va 0x1000 in
  let old = Page_image.create (2 * page) in
  Memsim.install m ~addr:base old;
  Memsim.store64 m (Vaddr.add base (page + 16)) 99;
  Memsim.evict m ~addr:base;
  let img = Page_image.create (2 * page) in
  Memsim.install m ~addr:base img;
  check "absent slot reads zero over the old page" 0
    (Memsim.load64 m (Vaddr.add base (page + 16)));
  Memsim.store64 m (Vaddr.add base page) 5;
  check "a store fills the slot with a zeroed page" 0
    (Memsim.load64 m (Vaddr.add base (page + 16)));
  check "the slot is present" 1 (Page_image.present img);
  check "the old image keeps its word" 99
    (Int64.to_int (Page_image.get_int64_le old (page + 16)))

let test_image_counts () =
  let metrics = Metrics.create () in
  let m = memory ~metrics () in
  let base = va 0x1000 in
  let stores () = Metrics.get metrics "mem.stores" in
  let loads () = Metrics.get metrics "mem.loads" in
  let img = Page_image.create ((3 * page) + 100) in
  Page_image.set_int64_le img 0 7L;
  Memsim.install m ~addr:base img;
  check "install counts one store per slot" 4 (stores ());
  let snap = Page_image.copy img in
  Page_image.restore ~src:snap img;
  check "image copies count no store" 4 (stores ());
  check "image copies count no load" 0 (loads ());
  Memsim.evict m ~addr:base;
  check "evict counts one load per slot" 4 (loads ());
  check "evict counts no store" 4 (stores ())

let test_image_rejects () =
  let m, base = fresh () in
  let img = Page_image.create page in
  Alcotest.check_raises "base must be page-aligned"
    (Invalid_argument "Memsim.install: base not page-aligned") (fun () ->
      Memsim.install m ~addr:(va 0x100008) img);
  Alcotest.check_raises "an image cannot overlap a mapping"
    (Invalid_argument
       (Printf.sprintf "Memsim.install: range at 0x%x overlaps existing mapping"
          ((Vaddr.add base page : Vaddr.t) :> int)))
    (fun () -> Memsim.install m ~addr:(Vaddr.add base page) img);
  Alcotest.check_raises "an empty image maps nothing"
    (Invalid_argument "Memsim.install: empty image") (fun () ->
      Memsim.install m ~addr:(va 0x100000) (Page_image.create 0));
  check_bool "nothing was mapped" false (Memsim.is_mapped m (va 0x100000));
  Alcotest.check_raises "restore needs images of one size"
    (Invalid_argument "Memsim.Page_image.restore: size mismatch") (fun () ->
      Page_image.restore ~src:(Page_image.create (page + 8)) img);
  Alcotest.check_raises "image writes stay inside the image"
    (Invalid_argument "Memsim.Page_image: range outside the image") (fun () ->
      Page_image.set_int64_le img (page - 4) 1L)

let test_drop_zero_page () =
  let m, base = fresh () in
  Memsim.store64 m base 5;
  Memsim.drop_zero_page m base;
  check "a page holding data stays" 1 (Memsim.pages m);
  Memsim.store64 m base 0;
  Memsim.drop_zero_page m base;
  check "an all-zero page goes" 0 (Memsim.pages m);
  (* A store after the drop must land in a fresh page that later
     accesses find ("drop_zero_page on an aliased page" forces the
     TLB entry out in between). *)
  Memsim.store64 m base 7;
  ignore (Memsim.load64 m (Vaddr.add base page));
  check "store after the drop survives" 7 (Memsim.load64 m base)

(* A page whose only non-zero byte is its first, or its last, holds
   data: the zero test covers every byte of the page. *)
let test_drop_zero_page_edges () =
  let m, base = fresh () in
  List.iter
    (fun off ->
      let a = Vaddr.add base off in
      Memsim.store8 m a 1;
      Memsim.drop_zero_page m base;
      check (Printf.sprintf "a page with byte %d set stays" off) 1
        (Memsim.pages m);
      check "its byte survives" 1 (Memsim.load8 m a);
      Memsim.store8 m a 0;
      Memsim.drop_zero_page m base;
      check "then all zero, it goes" 0 (Memsim.pages m))
    [ 0; page - 1 ]

(* Pages [p] and [p + 64] of one segment share a TLB entry. *)
let tlb_span = 64 * page

let test_tlb_aliased_pages () =
  let m = memory () in
  let base = va 0x1000 in
  Memsim.install m ~addr:base (Page_image.create (2 * tlb_span));
  let a = Vaddr.add base 8 and b = Vaddr.add base (tlb_span + 8) in
  for i = 1 to 10 do
    Memsim.store64 m a i;
    check "the other page keeps its word" (i - 1) (Memsim.load64 m b);
    Memsim.store64 m b i;
    check "this page keeps its word" i (Memsim.load64 m a)
  done;
  Memsim.evict m ~addr:base;
  Memsim.map m ~addr:base ~size:(2 * tlb_span);
  check "remapped page reads zero" 0 (Memsim.load64 m a);
  check "remapped alias reads zero" 0 (Memsim.load64 m b)

let test_drop_aliased_zero_page () =
  let m, base = fresh ~size:(2 * tlb_span) () in
  let a = Vaddr.add base 8 and b = Vaddr.add base (tlb_span + 8) in
  Memsim.store64 m a 0;
  Memsim.store64 m b 5;
  (* [b]'s page holds the shared entry: dropping [a]'s must leave it. *)
  Memsim.drop_zero_page m a;
  check "one page left" 1 (Memsim.pages m);
  check "the alias keeps its word" 5 (Memsim.load64 m b);
  Memsim.store64 m a 6;
  check "store after the drop survives" 6 (Memsim.load64 m a);
  Memsim.store64 m b 0;
  Memsim.drop_zero_page m b;
  check "the entry's own page goes" 1 (Memsim.pages m);
  check "dropped alias reads zero" 0 (Memsim.load64 m b);
  Memsim.store64 m b 9;
  check "the other page survives" 6 (Memsim.load64 m a);
  check "a store after dropping the entry's page survives" 9
    (Memsim.load64 m b)

(* The zero page never enters the TLB, so a page the image gains after
   a load read zeros there is what the next load reads. *)
let test_install_over_loaded_page () =
  let m = memory () in
  let base = va 0x1000 in
  let a = Vaddr.add base (page + 8) in
  let img = Page_image.create (2 * page) in
  Memsim.install m ~addr:base img;
  check "absent page reads zero" 0 (Memsim.load64 m a);
  check "the load materialized nothing" 0 (Page_image.present img);
  Page_image.set_int64_le img (page + 8) 42L;
  check "the image's new page is visible to the next load" 42
    (Memsim.load64 m a)

(* Closing a region leaves every page where it was: in its image. *)

let test_evict_keeps_image_pages () =
  let metrics = Metrics.create () in
  let m = memory ~metrics () in
  let base = va 0x10000 in
  let size = (2 * page) + 100 in
  let img = Page_image.create size in
  Page_image.set_int64_le img 16 0x1111L;
  Memsim.install m ~addr:base img;
  let first = Page_image.present img in
  Memsim.store64 m (Vaddr.add base 8) 0x2222;
  Memsim.store64 m (Vaddr.add base (2 * page)) 0x3333;
  (* Past [size] but inside the last mapped page. *)
  Memsim.store64 m (Vaddr.add base (2 * page + 200)) 0x4444;
  let l0 = Metrics.get metrics "mem.loads" in
  Memsim.evict m ~addr:base;
  check "one load per slot" 3 (Metrics.get metrics "mem.loads" - l0);
  check "memory keeps no page" 0 (Memsim.pages m);
  check "the header page stayed the image's" 1 first;
  check "the touched pages are the image's" 2 (Page_image.present img);
  check "installed word" 0x1111 (Int64.to_int (Page_image.get_int64_le img 16));
  check "first word" 0x2222 (Int64.to_int (Page_image.get_int64_le img 8));
  check "last word" 0x3333
    (Int64.to_int (Page_image.get_int64_le img (2 * page)));
  check_bool "the range is unmapped" false (Memsim.is_mapped m base);
  (* Close zeroed the last page past [size]: mapped again, it reads 0. *)
  Memsim.install m ~addr:base img;
  check "bytes past size read zero after a close" 0
    (Memsim.load64 m (Vaddr.add base (2 * page + 200)));
  check "bytes before it kept" 0x3333
    (Memsim.load64 m (Vaddr.add base (2 * page)))

let test_evict_rejects () =
  let m, base = fresh ~size:(2 * page) () in
  Memsim.store64 m base 5;
  Alcotest.check_raises "needs a mapping that starts at the base"
    (Invalid_argument
       (Printf.sprintf "Memsim.evict: no mapping at 0x%x"
          ((Vaddr.add base page : Vaddr.t) :> int)))
    (fun () -> Memsim.evict m ~addr:(Vaddr.add base page));
  Alcotest.check_raises "an anonymous mapping is not evicted"
    (Invalid_argument
       (Printf.sprintf "Memsim.evict: no image mapped at 0x%x"
          ((base : Vaddr.t) :> int)))
    (fun () -> Memsim.evict m ~addr:base);
  check "nothing moved" 5 (Memsim.load64 m base);
  check_bool "still mapped" true (Memsim.is_mapped m base)

(* Spares come from drop_zero_page alone, which releases only all-zero
   pages, so a page taken from them reads zero whoever held it before.
   Only anonymous pages become spares: an image's never do. *)
let test_recycled_page_reads_zero () =
  let m, base = fresh ~size:(3 * page) () in
  let fill ?(v = -1) a n =
    for i = 0 to (n / 8) - 1 do
      Memsim.store64 m (Vaddr.add a (8 * i)) v
    done
  in
  let all_zero_but a n ~off v =
    for i = 0 to (n / 8) - 1 do
      check "a recycled page reads zero"
        (if 8 * i = off then v else 0)
        (Memsim.load64 m (Vaddr.add a (8 * i)))
    done
  in
  fill base (3 * page);
  for p = 0 to 2 do
    Memsim.drop_zero_page m (Vaddr.add base (p * page))
  done;
  check "pages holding data stay" 3 (Memsim.pages m);
  fill ~v:0 base (3 * page);
  for p = 0 to 2 do
    Memsim.drop_zero_page m (Vaddr.add base (p * page))
  done;
  check "the pages left memory" 0 (Memsim.pages m);
  (* Three spares now. A store to an anonymous page takes one. *)
  let other = va 0x200000 in
  Memsim.map m ~addr:other ~size:(2 * page);
  Memsim.store8 m (Vaddr.add other 1) 1;
  all_zero_but other page ~off:0 0x100;
  (* A store to an absent slot takes one into the image. *)
  let img = Page_image.create ((2 * page) + 100) in
  let third = va 0x400000 in
  Memsim.install m ~addr:third img;
  Memsim.store64 m (Vaddr.add third 16) 9;
  all_zero_but third page ~off:16 9;
  check "the spare became the image's slot" 9
    (Int64.to_int (Page_image.get_int64_le img 16));
  (* A store to the absent last slot takes the last, tail included. *)
  Memsim.store64 m (Vaddr.add third ((2 * page) + 8)) 7;
  all_zero_but (Vaddr.add third (2 * page)) page ~off:8 7;
  (* An image's pages never become spares: once it is closed, stores
     through a new mapping at the same address land in pages of
     memory's own. *)
  fill third (3 * page);
  Memsim.evict m ~addr:third;
  Memsim.map m ~addr:third ~size:(3 * page);
  for p = 0 to 2 do
    Memsim.store8 m (Vaddr.add third (p * page)) 0
  done;
  all_zero_but third (3 * page) ~off:(-1) 0;
  let flat = Page_image.to_bytes img in
  check_bool "the closed image keeps every byte a store wrote" true
    (Bytes.for_all (fun c -> c = '\xff') flat)

(* A closed region's pages belong to its image: a new mapping at the
   same address, whose pages share the old ones' TLB entries, must not
   reach them. *)
let test_store_after_evict_spares_image () =
  let m = memory () in
  let base = va 0x1000 in
  let img = Page_image.create (2 * page) in
  Memsim.install m ~addr:base img;
  Memsim.store64 m base 1;
  Memsim.store64 m (Vaddr.add base page) 2;
  Memsim.evict m ~addr:base;
  check_bool "the old address faults" true
    (try
       ignore (Memsim.load64 m base);
       false
     with Memsim.Fault _ -> true);
  Memsim.map m ~addr:base ~size:(2 * page);
  check "the new mapping reads zero" 0 (Memsim.load64 m base);
  Memsim.store64 m base 3;
  Memsim.store64 m (Vaddr.add base page) 4;
  check "first image word untouched" 1
    (Int64.to_int (Page_image.get_int64_le img 0));
  check "second image word untouched" 2
    (Int64.to_int (Page_image.get_int64_le img page));
  check "the new mapping keeps its own word" 3 (Memsim.load64 m base)

(* Restoring and copying an image that memory maps: a crash writes the
   durable image back over the live one in place, and a snapshot is a
   copy of the live one. *)

let word img off = Int64.to_int (Page_image.get_int64_le img off)

(* A load leaves the mapped page in the TLB; restore rewrites that very
   page, so the next load sees [src] with no TLB clear. *)
let test_restore_in_place () =
  let m = memory () in
  let base = va 0x1000 in
  let img = Page_image.create (2 * page) in
  Page_image.set_int64_le img 8 1L;
  Memsim.install m ~addr:base img;
  check "loaded through the mapping" 1 (Memsim.load64 m (Vaddr.add base 8));
  let src = Page_image.create (2 * page) in
  Page_image.set_int64_le src 8 2L;
  Page_image.restore ~src img;
  check "the next load sees src" 2 (Memsim.load64 m (Vaddr.add base 8));
  Memsim.store64 m (Vaddr.add base 16) 3;
  check "a store still lands in the image" 3 (word img 16)

(* An absent source slot zeroes the page under it, which stays present
   and mapped. *)
let test_restore_zeroes_under_absent () =
  let m = memory () in
  let base = va 0x1000 in
  let img = Page_image.create (2 * page) in
  Memsim.install m ~addr:base img;
  Memsim.store64 m (Vaddr.add base (page + 8)) 5;
  Page_image.restore ~src:(Page_image.create (2 * page)) img;
  check "the page stays present" 1 (Page_image.present img);
  check "and reads zero" 0 (Memsim.load64 m (Vaddr.add base (page + 8)));
  Memsim.store64 m (Vaddr.add base (page + 16)) 6;
  check "a store still lands in the image" 6 (word img (page + 16))

(* A present source slot over an absent one becomes a page of the
   image's own: a write to either side stays on its side. *)
let test_restore_copies_into_absent () =
  let m = memory () in
  let base = va 0x1000 in
  let img = Page_image.create (2 * page) in
  Memsim.install m ~addr:base img;
  check "absent slot reads zero" 0 (Memsim.load64 m (Vaddr.add base 8));
  let src = Page_image.create (2 * page) in
  Page_image.set_int64_le src 8 7L;
  Page_image.restore ~src img;
  check "one page present" 1 (Page_image.present img);
  check "memory reads the restored page" 7 (Memsim.load64 m (Vaddr.add base 8));
  Page_image.set_int64_le src 8 8L;
  check "a write to src stays in src" 7 (Memsim.load64 m (Vaddr.add base 8));
  Memsim.store64 m (Vaddr.add base 8) 9;
  check "a store through the mapping stays in the image" 8 (word src 8)

(* A mapping can write the bytes of the last page past the image's size;
   a copy must not carry them. *)
let test_copy_zeroes_tail () =
  let m = memory () in
  let base = va 0x1000 in
  let img = Page_image.create (page + 100) in
  Memsim.install m ~addr:base img;
  Memsim.store64 m (Vaddr.add base (page + 8)) 1;
  Memsim.store64 m (Vaddr.add base (page + 200)) 2;
  let copy = Page_image.copy img in
  let other = va 0x100000 in
  Memsim.install m ~addr:other copy;
  check "the copy keeps its bytes" 1
    (Memsim.load64 m (Vaddr.add other (page + 8)));
  check "the copy reads zero past its size" 0
    (Memsim.load64 m (Vaddr.add other (page + 200)));
  check "the original mapping keeps its store" 2
    (Memsim.load64 m (Vaddr.add base (page + 200)))

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

(* Installed, the image reads as the flat bytes; a copy taken through
   the mapping, then restored over a scribble through it, brings them
   back; neither the copy nor the restore moves a counter. *)
let prop_image_install_matches_blits =
  QCheck2.Test.make
    ~name:"image install/peek match flat blits"
    ~count:100 gen_flat (fun flat ->
      let len = Bytes.length flat in
      let img = Page_image.of_bytes flat in
      let metrics = Metrics.create () in
      let m = memory ~metrics () in
      let counts () =
        (Metrics.get metrics "mem.loads", Metrics.get metrics "mem.stores")
      in
      let base = va 0x1000 in
      Memsim.install m ~addr:base img;
      let read = Memsim.blit_to_bytes m ~addr:base ~len in
      let c0 = counts () in
      let snap = Page_image.copy img in
      let copy_counts = counts () = c0 in
      Memsim.blit_from_bytes m ~addr:base (Bytes.make len '\xa5');
      let c1 = counts () in
      Page_image.restore ~src:snap img;
      let restore_counts = counts () = c1 in
      let restored = Memsim.blit_to_bytes m ~addr:base ~len in
      Memsim.evict m ~addr:base;
      Bytes.equal read flat
      && Bytes.equal (Page_image.to_bytes snap) flat
      && Bytes.equal restored flat
      && Bytes.equal (Page_image.to_bytes img) flat
      && copy_counts && restore_counts)

(* Memory driven by random map, install, typed store, load, close
   ([evict]) and drop_zero_page against a flat model. Three slots 64
   pages apart share TLB entries; an image slot remaps at the address it
   just released, with a size drawn from a set where the last page is
   mostly partial, and an anonymous slot stays mapped. An install maps
   the slot's last closed image again when there is one, so its pages go
   back into memory after anonymous mappings reused the spares. A third
   of the stores write 0, so drop_zero_page finds all-zero pages to turn
   into spares. Every load, every closed image (grown to whole pages, so
   its zeroed tail shows) and every image about to be installed again is
   compared with the model. *)
let prop_pages_match_flat_model =
  let slot_base s = 0x40000 * (s + 1) in
  let sizes = [| page; 5000; (2 * page) + 8; (3 * page) - 100 |] in
  let rounded n = (n + page - 1) / page * page in
  let op_gen =
    QCheck2.Gen.(
      let slot = int_range 0 2 in
      let off = int_range 0 ((3 * page) - 1) in
      let width = oneofl [ 1; 2; 4; 8 ] in
      let size = map (fun z -> sizes.(z)) (int_range 0 3) in
      frequency
        [
          (2, map2 (fun s z -> `Map (s, z)) slot size);
          (2, map2 (fun s z -> `Install (s, z)) slot size);
          ( 6,
            map4
              (fun s o w v -> `Store (s, o, w, v))
              slot off width
              (frequency [ (1, return 0); (2, int) ]) );
          (6, map3 (fun s o w -> `Load (s, o, w)) slot off width);
          (2, map (fun s -> `Close s) slot);
          (1, map2 (fun s o -> `Drop (s, o)) slot off);
        ])
  in
  QCheck2.Test.make ~name:"pages match a flat model through closes and reuse"
    ~count:300
    QCheck2.Gen.(list_size (int_range 20 150) op_gen)
    (fun ops ->
      let m = memory () in
      (* Per slot: the mapped image (none when anonymous), the mapped
         size and its flat page-rounded bytes; and the last closed image
         with its flat model. *)
      let mapped = Array.make 3 None in
      let images = Array.make 3 None in
      let addr s o = va (slot_base s + o) in
      let read b o w =
        let v = ref 0 in
        for i = w - 1 downto 0 do
          v := (!v lsl 8) lor Char.code (Bytes.get b (o + i))
        done;
        if w = 8 then Int64.to_int (Bytes.get_int64_le b o) else !v
      in
      let faults f = try f (); false with Memsim.Fault _ -> true in
      let rejects f = try f (); false with Invalid_argument _ -> true in
      List.for_all
        (fun op ->
          match op with
          | `Map (s, size) -> (
              match mapped.(s) with
              | Some _ -> rejects (fun () -> Memsim.map m ~addr:(addr s 0) ~size)
              | None ->
                  Memsim.map m ~addr:(addr s 0) ~size;
                  mapped.(s) <- Some (None, size, Bytes.make (rounded size) '\000');
                  true)
          | `Install (s, size) -> (
              let img, flat =
                match images.(s) with
                | Some (img, flat) -> (img, flat)
                | None -> (Page_image.create size, Bytes.make size '\000')
              in
              match mapped.(s) with
              | Some _ ->
                  rejects (fun () -> Memsim.install m ~addr:(addr s 0) img)
              | None ->
                  let intact = Bytes.equal (Page_image.to_bytes img) flat in
                  Memsim.install m ~addr:(addr s 0) img;
                  let size = Page_image.size img in
                  let b = Bytes.make (rounded size) '\000' in
                  Bytes.blit flat 0 b 0 size;
                  mapped.(s) <- Some (Some img, size, b);
                  intact)
          | `Store (s, o, w, v) -> (
              let o = o land lnot (w - 1) in
              match mapped.(s) with
              | Some (_, _, b) when o < Bytes.length b ->
                  Memsim.store_sized m ~size:w (addr s o) v;
                  if w = 8 then Bytes.set_int64_le b o (Int64.of_int v)
                  else
                    for i = 0 to w - 1 do
                      Bytes.set b (o + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
                    done;
                  true
              | _ ->
                  faults (fun () -> Memsim.store_sized m ~size:w (addr s o) v))
          | `Load (s, o, w) -> (
              let o = o land lnot (w - 1) in
              match mapped.(s) with
              | Some (_, _, b) when o < Bytes.length b ->
                  Memsim.load_sized m ~size:w (addr s o) = read b o w
              | _ ->
                  faults (fun () ->
                      ignore (Memsim.load_sized m ~size:w (addr s o))))
          | `Close s -> (
              match mapped.(s) with
              | Some (Some img, size, b) ->
                  (* The closed image's bytes must be the model's and its
                     last page zero past its size. *)
                  Memsim.evict m ~addr:(addr s 0);
                  let flat = Bytes.sub b 0 size in
                  mapped.(s) <- None;
                  images.(s) <- Some (img, flat);
                  let whole = Bytes.make (rounded size) '\000' in
                  Bytes.blit flat 0 whole 0 size;
                  Bytes.equal
                    (Page_image.to_bytes (Page_image.resize img (rounded size)))
                    whole
              | Some (None, _, _) | None ->
                  rejects (fun () -> Memsim.evict m ~addr:(addr s 0)))
          | `Drop (s, o) ->
              Memsim.drop_zero_page m (addr s o);
              true)
        ops)

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
        ] );
      ( "faults",
        [
          Alcotest.test_case "unmapped access faults" `Quick
            test_unmapped_faults;
          Alcotest.test_case "misaligned access faults" `Quick
            test_misaligned_faults;
          Alcotest.test_case "overlapping map rejected" `Quick
            test_map_overlap_rejected;
          Alcotest.test_case "map after unmap of overlapping range" `Quick
            test_map_after_unmap_overlapping;
          Alcotest.test_case "pages sharing a TLB entry" `Quick
            test_tlb_aliased_pages;
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
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_store_load_64;
          QCheck_alcotest.to_alcotest prop_blit_arbitrary_bytes;
          QCheck_alcotest.to_alcotest prop_tlb_matches_reference;
          QCheck_alcotest.to_alcotest prop_disjoint_writes;
          QCheck_alcotest.to_alcotest prop_image_install_matches_blits;
          QCheck_alcotest.to_alcotest prop_pages_match_flat_model;
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
          Alcotest.test_case "drop_zero_page keeps a page's first and last byte"
            `Quick test_drop_zero_page_edges;
          Alcotest.test_case "drop_zero_page on an aliased page" `Quick
            test_drop_aliased_zero_page;
          Alcotest.test_case "install over a page only loaded" `Quick
            test_install_over_loaded_page;
          Alcotest.test_case "evict keeps the image's pages" `Quick
            test_evict_keeps_image_pages;
          Alcotest.test_case "evict rejects" `Quick test_evict_rejects;
          Alcotest.test_case "a recycled page reads zero" `Quick
            test_recycled_page_reads_zero;
          Alcotest.test_case "a store after evict spares the image" `Quick
            test_store_after_evict_spares_image;
          Alcotest.test_case "restore rewrites a mapped page in place" `Quick
            test_restore_in_place;
          Alcotest.test_case "restore zeroes a page under an absent slot"
            `Quick test_restore_zeroes_under_absent;
          Alcotest.test_case "restore copies into an absent slot" `Quick
            test_restore_copies_into_absent;
          Alcotest.test_case "copy zeroes the tail a mapping wrote" `Quick
            test_copy_zeroes_tail;
        ] );
    ]
