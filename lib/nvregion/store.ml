module K = Nvmpi_addr.Kinds
module Rid = K.Rid
module Page_image = Nvmpi_memsim.Memsim.Page_image

type blob = { rid : Rid.t; size : int; data : Page_image.t }

(* The store indexes blobs by raw ID: it models the NVM device, below
   the typed discipline; [Rid.t] appears at the interface. *)
type t = { blobs : (int, blob) Hashtbl.t; mutable next : int }

let header_bytes = Header.bytes
let max_roots = Header.max_roots
let magic = Header.magic

let create () = { blobs = Hashtbl.create 16; next = 1 }

let init_header b ~rid ~size =
  let set off v = Page_image.set_int64_le b off (Int64.of_int v) in
  set Header.off_magic magic;
  set Header.off_rid rid;
  set Header.off_size size;
  set Header.off_heap_top header_bytes;
  set Header.off_nroots 0

(* [fn] names the caller in errors. *)
let check_new ~fn t rid ~size =
  if rid <= 0 then invalid_arg (fn ^ ": rid must be positive");
  if Hashtbl.mem t.blobs rid then
    invalid_arg (Printf.sprintf "%s: rid %d exists" fn rid);
  if size < header_bytes then
    invalid_arg (Printf.sprintf "%s: size %d < header %d" fn size header_bytes)

let add_blob t rid data =
  let size = Page_image.size data in
  Hashtbl.add t.blobs rid { rid = Rid.v rid; size; data };
  if rid >= t.next then t.next <- rid + 1

let add_with_rid t ~rid:(rid : Rid.t) ~size =
  let rid = (rid :> int) in
  check_new ~fn:"Store.add_with_rid" t rid ~size;
  let data = Page_image.create size in
  init_header data ~rid ~size;
  add_blob t rid data

let add_image t ~rid:(rid : Rid.t) data =
  let rid = (rid :> int) in
  check_new ~fn:"Store.add_image" t rid ~size:(Page_image.size data);
  add_blob t rid data

let add t ~size =
  let rid = Rid.v t.next in
  add_with_rid t ~rid ~size;
  rid

let find t (rid : Rid.t) = Hashtbl.find_opt t.blobs (rid :> int)

let grow t ~rid:(rid : Rid.t) ~size =
  match Hashtbl.find_opt t.blobs (rid :> int) with
  | None ->
      invalid_arg (Printf.sprintf "Store.grow: no region %d" (rid :> int))
  | Some b ->
      if size <= b.size then
        invalid_arg "Store.grow: new size must exceed the current size";
      let data = Page_image.resize b.data size in
      (* The header records the region size; update it in the image. *)
      Page_image.set_int64_le data Header.off_size (Int64.of_int size);
      Hashtbl.replace t.blobs (rid :> int) { b with size; data }

let find_exn t (rid : Rid.t) =
  match find t rid with
  | Some b -> b
  | None ->
      invalid_arg
        (Printf.sprintf "Store.find_exn: no region %d" (rid :> int))

let mem t (rid : Rid.t) = Hashtbl.mem t.blobs (rid :> int)
let remove t (rid : Rid.t) = Hashtbl.remove t.blobs (rid :> int)

let ids t =
  Hashtbl.fold (fun k _ acc -> Rid.v k :: acc) t.blobs []
  |> List.sort Rid.compare

let next_rid t = Rid.v t.next

let blob_rid b =
  Rid.v (Int64.to_int (Page_image.get_int64_le b.data Header.off_rid))

let file_magic = "NVMPI-STORE-1\n"

let save_file t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc file_magic;
      let ids = ids t in
      output_binary_int oc (List.length ids);
      List.iter
        (fun rid ->
          let b = find_exn t rid in
          output_binary_int oc (b.rid :> int);
          output_binary_int oc b.size;
          output_bytes oc (Page_image.to_bytes b.data))
        ids)

let load_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let m = really_input_string ic (String.length file_magic) in
      if m <> file_magic then failwith "Store.load_file: bad magic";
      let n = input_binary_int ic in
      let t = create () in
      for _ = 1 to n do
        let rid = input_binary_int ic in
        let size = input_binary_int ic in
        let data = Bytes.create size in
        really_input ic data 0 size;
        add_blob t rid (Page_image.of_bytes data)
      done;
      t)
