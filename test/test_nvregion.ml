module Store = Core.Store
module Region = Core.Region
module Manager = Core.Manager
module Memsim = Core.Memsim
module Layout = Core.Layout
module Kinds = Core.Kinds
module Vaddr = Kinds.Vaddr
module Page_image = Memsim.Page_image
module Metrics = Core.Metrics

(* Tests bless host integers at the Figure 8 trust boundary and coerce
   typed results back out for Alcotest's int checkers. *)
let va = Vaddr.v
let ia (a : Vaddr.t) = (a :> int)
let ri = Kinds.Rid.v
let ir (r : Kinds.Rid.t) = (r :> int)

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let layout = Layout.default

let manager ?seed () =
  let store = Store.create () in
  let mem = Memsim.create () in
  let mgr = Manager.create ?seed ~layout ~mem ~store () in
  (store, mgr)

(* Store *)

let test_store_ids () =
  let s = Store.create () in
  let r1 = Store.add s ~size:65536 in
  let r2 = Store.add s ~size:65536 in
  check "first id" 1 (ir r1);
  check "second id" 2 (ir r2);
  check_bool "mem" true (Store.mem s r1);
  Alcotest.(check (list int)) "ids" [ 1; 2 ] (List.map ir (Store.ids s));
  Store.remove s r1;
  check_bool "removed" false (Store.mem s r1);
  Store.add_with_rid s ~rid:(ri 100) ~size:65536;
  check "next after explicit" 101 (ir (Store.next_rid s))

let test_store_rejects () =
  let s = Store.create () in
  Alcotest.check_raises "rid 0"
    (Invalid_argument "Store.add_with_rid: rid must be positive") (fun () ->
      Store.add_with_rid s ~rid:(ri 0) ~size:65536);
  let _ = Store.add s ~size:65536 in
  check_bool "duplicate rejected" true
    (try
       Store.add_with_rid s ~rid:(ri 1) ~size:65536;
       false
     with Invalid_argument _ -> true);
  check_bool "too small rejected" true
    (try
       ignore (Store.add s ~size:16);
       false
     with Invalid_argument _ -> true)

let test_store_header () =
  let s = Store.create () in
  let rid = Store.add s ~size:65536 in
  let b = Store.find_exn s rid in
  check "header rid" (ir rid) (ir (Store.blob_rid b));
  check "blob size" 65536 b.Store.size

let test_store_file_roundtrip () =
  let s = Store.create () in
  let rid = Store.add s ~size:65536 in
  let b = Store.find_exn s rid in
  Page_image.blit_from_bytes (Bytes.of_string "Q") 0 b.Store.data 8192 1;
  let path = Filename.temp_file "nvmpi" ".store" in
  Store.save_file s path;
  let s' = Store.load_file path in
  Sys.remove path;
  let b' = Store.find_exn s' rid in
  Alcotest.(check char) "payload byte" 'Q'
    (Bytes.get (Page_image.to_bytes b'.Store.data) 8192);
  check "next_rid preserved" (ir (Store.next_rid s)) (ir (Store.next_rid s'))

(* The file format is flat: magic, region count, then per region its
   id, size and [size] bytes, every page present or not. *)
let flat_file regions =
  let buf = Buffer.create 4096 in
  let int n =
    Buffer.add_string buf
      (String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF)))
  in
  Buffer.add_string buf "NVMPI-STORE-1\n";
  int (List.length regions);
  List.iter
    (fun (rid, data) ->
      int rid;
      int (Bytes.length data);
      Buffer.add_bytes buf data)
    regions;
  Buffer.contents buf

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_store_file_is_flat () =
  let s = Store.create () in
  let rid = Store.add s ~size:12345 in
  let b = Store.find_exn s rid in
  Page_image.set_int64_le b.Store.data 9000 (-1L);
  let path = Filename.temp_file "nvmpi" ".store" in
  Store.save_file s path;
  let written = read_file path in
  Sys.remove path;
  Alcotest.(check string) "flat bytes of every page"
    (flat_file [ (ir rid, Page_image.to_bytes b.Store.data) ])
    written

let test_store_loads_flat_file () =
  let data = Bytes.make 10000 '\000' in
  Bytes.set_int64_le data 0 (Int64.of_int Store.magic);
  Bytes.set_int64_le data 8 3L;
  Bytes.set_int64_le data 9000 0x5151L;
  let path = Filename.temp_file "nvmpi" ".store" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (flat_file [ (3, data) ]));
  let s = Store.load_file path in
  Sys.remove path;
  let b = Store.find_exn s (ri 3) in
  check "size" 10000 b.Store.size;
  check "header rid" 3 (ir (Store.blob_rid b));
  check "only the non-zero pages are present" 2
    (Page_image.present b.Store.data);
  Alcotest.(check bool) "contents" true
    (Bytes.equal data (Page_image.to_bytes b.Store.data));
  check "next rid" 4 (ir (Store.next_rid s))

(* Regions through a manager *)

let test_open_place_and_header () =
  let _, mgr = manager ~seed:1 () in
  let rid = Manager.create_region mgr ~size:65536 in
  let r = Manager.open_region mgr rid in
  check "rid" (ir rid) (ir (Region.rid r));
  check_bool "base in data area" true
    (Layout.is_data_addr layout (ia (Region.base r)));
  check_bool "base segment-aligned" true
    (Layout.seg_offset layout (ia (Region.base r)) = 0);
  Region.check_header r

let test_open_twice_same_handle () =
  let _, mgr = manager ~seed:1 () in
  let rid = Manager.create_region mgr ~size:65536 in
  let r1 = Manager.open_region mgr rid in
  let r2 = Manager.open_region mgr rid in
  check "same base" (ia (Region.base r1)) (ia (Region.base r2))

let test_alloc_and_roots () =
  let _, mgr = manager ~seed:2 () in
  let rid = Manager.create_region mgr ~size:65536 in
  let r = Manager.open_region mgr rid in
  let a = Region.alloc r 100 in
  let b = Region.alloc r 8 in
  check_bool "allocations ordered" true (ia b >= ia a + 100);
  check_bool "aligned" true (ia a land 7 = 0 && ia b land 7 = 0);
  Region.set_root r "head" a;
  Region.set_root r "tail" ~tag:7 b;
  check "root head" (ia a) (ia (Option.get (Region.root r "head")));
  check "root tail" (ia b) (ia (Option.get (Region.root r "tail")));
  check "tag" 7 (Option.get (Region.root_tag r "tail"));
  Alcotest.(check (option int)) "missing root" None
    (Option.map ia (Region.root r "nope"));
  (* Replacing a root keeps the table size. *)
  Region.set_root r "head" b;
  check "replaced" (ia b) (ia (Option.get (Region.root r "head")));
  check "two roots" 2 (List.length (Region.roots r))

let test_alloc_exhaustion () =
  let _, mgr = manager ~seed:3 () in
  let rid = Manager.create_region mgr ~size:8192 in
  let r = Manager.open_region mgr rid in
  check_bool "out of memory raised" true
    (try
       ignore (Region.alloc r 100000);
       false
     with Region.Out_of_region_memory _ -> true)

let test_root_table_overflow () =
  let _, mgr = manager ~seed:19 () in
  let rid = Manager.create_region mgr ~size:(1 lsl 20) in
  let r = Manager.open_region mgr rid in
  for i = 0 to 63 do
    Region.set_root r (Printf.sprintf "r%02d" i) (Region.alloc r 8)
  done;
  check "table full" 64 (List.length (Region.roots r));
  check_bool "65th root rejected" true
    (try
       Region.set_root r "overflow" (Region.alloc r 8);
       false
     with Invalid_argument _ -> true);
  (* Replacing an existing root still works when full. *)
  let a = Region.alloc r 8 in
  Region.set_root r "r00" a;
  check "replace works when full" (ia a) (ia (Option.get (Region.root r "r00")))

let test_persistence_across_runs () =
  let store = Store.create () in
  (* Run 1: create, populate, close. *)
  let base1 =
    let mem = Memsim.create () in
    let mgr = Manager.create ~seed:10 ~layout ~mem ~store () in
    let rid = Manager.create_region mgr ~size:65536 in
    let r = Manager.open_region mgr rid in
    let a = Region.alloc r 64 in
    Memsim.store64 mem a 0xFEED;
    Region.set_root r "data" a;
    Manager.close_region mgr rid;
    Region.base r
  in
  (* Run 2: reopen under a different placement seed. *)
  let mem = Memsim.create () in
  let mgr = Manager.create ~seed:11 ~layout ~mem ~store () in
  let r = Manager.open_region mgr (ri 1) in
  check_bool "different base across runs" true
    (not (Vaddr.equal (Region.base r) base1));
  let a = Option.get (Region.root r "data") in
  check "payload survived" 0xFEED (Memsim.load64 mem a);
  (* Heap cursor persisted: the next allocation does not overlap. *)
  let b = Region.alloc r 8 in
  check_bool "alloc continues past old data" true (ia b > ia a)

let test_close_unmaps () =
  let _, mgr = manager ~seed:4 () in
  let rid = Manager.create_region mgr ~size:65536 in
  let r = Manager.open_region mgr rid in
  let base = Region.base r in
  Manager.close_region mgr rid;
  check_bool "not open" false (Manager.is_open mgr rid);
  check_bool "unmapped" true
    (try
       ignore (Memsim.load64 (Manager.mem mgr) base);
       false
     with Memsim.Fault _ -> true)

let test_save_region_checkpoint () =
  let store, mgr = manager ~seed:5 () in
  let rid = Manager.create_region mgr ~size:65536 in
  let r = Manager.open_region mgr rid in
  let a = Region.alloc r 8 in
  Memsim.store64 (Manager.mem mgr) a 42;
  Manager.save_region mgr rid;
  (* The blob now contains the value even though the region stays open. *)
  let blob = Store.find_exn store rid in
  let off = Vaddr.offset_in a ~base:(Region.base r) in
  check "checkpointed" 42
    (Int64.to_int (Page_image.get_int64_le blob.Store.data off))

(* Opening copies the image in and closing copies it out, one counted
   store or load per page the region spans, whether or not the image
   holds that page — what the chunked flat blit with observers off
   counted. Opening also loads the header's magic and rid. *)
let test_open_close_counts () =
  List.iter
    (fun (size, chunks) ->
      let metrics = Metrics.create () in
      let mem = Memsim.create ~metrics () in
      let store = Store.create () in
      let mgr = Manager.create ~seed:9 ~layout ~mem ~store () in
      let rid = Manager.create_region mgr ~size in
      let stores () = Metrics.get metrics "mem.stores" in
      let loads () = Metrics.get metrics "mem.loads" in
      let s0 = stores () and l0 = loads () in
      ignore (Manager.open_region mgr rid);
      check (Printf.sprintf "%d-byte open stores" size) chunks (stores () - s0);
      check (Printf.sprintf "%d-byte open loads" size) 2 (loads () - l0);
      let s1 = stores () and l1 = loads () in
      Manager.close_region mgr rid;
      check (Printf.sprintf "%d-byte close stores" size) 0 (stores () - s1);
      check (Printf.sprintf "%d-byte close loads" size) chunks (loads () - l1);
      check "stats agree with the counters" (stores ())
        (Memsim.stats mem).Memsim.stores)
    [ (4096, 1); (3 * 4096, 3); (1 lsl 20, 256); (5000, 2) ]

(* The last mapped page of a region whose size is not a page multiple
   holds bytes past the region; they never reach the image. *)
let test_bytes_past_size_stay_out () =
  let store, mgr = manager ~seed:12 () in
  let rid = Manager.create_region mgr ~size:5000 in
  let r = Manager.open_region mgr rid in
  let mem = Manager.mem mgr in
  Memsim.store8 mem (Vaddr.add (Region.base r) 4999) 0x41;
  Memsim.store64 mem (Vaddr.add (Region.base r) 6000) 0x4242;
  check "past-size store landed in memory" 0x4242
    (Memsim.load64 mem (Vaddr.add (Region.base r) 6000));
  Manager.close_region mgr rid;
  Store.grow store ~rid ~size:8192;
  let flat = Page_image.to_bytes (Store.find_exn store rid).Store.data in
  check "last byte of the region kept" 0x41 (Char.code (Bytes.get flat 4999));
  check_bool "grown tail is zero" true
    (Bytes.for_all (fun c -> c = '\000') (Bytes.sub flat 5000 (8192 - 5000)));
  let r = Manager.open_region mgr rid in
  check "reopened tail reads zero" 0
    (Memsim.load64 mem (Vaddr.add (Region.base r) 6000))

let test_pinned_placement () =
  let _, mgr = manager ~seed:6 () in
  let rid = Manager.create_region mgr ~size:65536 in
  let nb = Layout.data_nvbase_min layout + 5 in
  let r = Manager.open_region ~at_nvbase:(Kinds.Seg.v nb) mgr rid in
  check "pinned" (Layout.segment_base_of_nvbase layout nb) (ia (Region.base r));
  let rid2 = Manager.create_region mgr ~size:65536 in
  check_bool "occupied nvbase rejected" true
    (try
       ignore (Manager.open_region ~at_nvbase:(Kinds.Seg.v nb) mgr rid2);
       false
     with Invalid_argument _ -> true)

let test_region_of_addr () =
  let _, mgr = manager ~seed:7 () in
  let rid = Manager.create_region mgr ~size:65536 in
  let r = Manager.open_region mgr rid in
  (match Manager.region_of_addr mgr (Vaddr.add (Region.base r) 100) with
  | Some r' -> check "found" (ir rid) (ir (Region.rid r'))
  | None -> Alcotest.fail "region_of_addr missed");
  check_bool "miss outside" true
    (Manager.region_of_addr mgr (va 0x10000) = None)

let test_too_large_region_rejected () =
  let _, mgr = manager ~seed:8 () in
  let size = Layout.segment_size layout + 4096 in
  (* Creating the blob would need 4 GiB of host memory under the default
     layout; use the small layout instead. *)
  let small = Layout.small in
  let store = Store.create () in
  let mem = Memsim.create () in
  let mgr2 = Manager.create ~seed:8 ~layout:small ~mem ~store () in
  let rid =
    Manager.create_region mgr2 ~size:(Layout.segment_size small + 4096)
  in
  check_bool "oversized rejected" true
    (try
       ignore (Manager.open_region mgr2 rid);
       false
     with Invalid_argument _ -> true);
  ignore mgr;
  ignore size

let test_offset_addr_conversions () =
  let _, mgr = manager ~seed:9 () in
  let rid = Manager.create_region mgr ~size:65536 in
  let r = Manager.open_region mgr rid in
  let a = Region.addr_of_offset r 4096 in
  check "roundtrip" 4096 (Region.offset_of_addr r a);
  check_bool "bad offset" true
    (try
       ignore (Region.addr_of_offset r 65536);
       false
     with Invalid_argument _ -> true);
  check_bool "bad addr" true
    (try
       ignore (Region.offset_of_addr r (Vaddr.add (Region.base r) (-8)));
       false
     with Invalid_argument _ -> true)

let prop_roots_random =
  QCheck2.Test.make ~name:"root table stores many distinct roots" ~count:50
    QCheck2.Gen.(int_range 1 60)
    (fun n ->
      let _, mgr = manager ~seed:n () in
      let rid = Manager.create_region mgr ~size:(1 lsl 20) in
      let r = Manager.open_region mgr rid in
      let addrs =
        List.init n (fun i ->
            let a = Region.alloc r 16 in
            Region.set_root r (Printf.sprintf "root%02d" i) a;
            a)
      in
      List.for_all2
        (fun i a ->
          match Region.root r (Printf.sprintf "root%02d" i) with
          | Some b -> Vaddr.equal a b
          | None -> false)
        (List.init n Fun.id) addrs)

let () =
  Alcotest.run "nvregion"
    [
      ( "store",
        [
          Alcotest.test_case "id allocation" `Quick test_store_ids;
          Alcotest.test_case "rejects" `Quick test_store_rejects;
          Alcotest.test_case "header init" `Quick test_store_header;
          Alcotest.test_case "file roundtrip" `Quick test_store_file_roundtrip;
          Alcotest.test_case "file is flat" `Quick test_store_file_is_flat;
          Alcotest.test_case "loads a flat file" `Quick
            test_store_loads_flat_file;
        ] );
      ( "regions",
        [
          Alcotest.test_case "open places in data area" `Quick
            test_open_place_and_header;
          Alcotest.test_case "open twice" `Quick test_open_twice_same_handle;
          Alcotest.test_case "alloc + roots" `Quick test_alloc_and_roots;
          Alcotest.test_case "alloc exhaustion" `Quick test_alloc_exhaustion;
          Alcotest.test_case "offset conversions" `Quick
            test_offset_addr_conversions;
          Alcotest.test_case "root table overflow" `Quick
            test_root_table_overflow;
          Alcotest.test_case "persistence across runs" `Quick
            test_persistence_across_runs;
          Alcotest.test_case "close unmaps" `Quick test_close_unmaps;
          Alcotest.test_case "checkpoint" `Quick test_save_region_checkpoint;
          Alcotest.test_case "open/close count one access per page" `Quick
            test_open_close_counts;
          Alcotest.test_case "bytes past size stay out of the image" `Quick
            test_bytes_past_size_stay_out;
          Alcotest.test_case "pinned placement" `Quick test_pinned_placement;
          Alcotest.test_case "region_of_addr" `Quick test_region_of_addr;
          Alcotest.test_case "oversized region rejected" `Quick
            test_too_large_region_rejected;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_roots_random ]);
    ]
