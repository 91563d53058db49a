module Layout = Nvmpi_addr.Layout
module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Rid = K.Rid
module Seg = K.Seg
module Memsim = Nvmpi_memsim.Memsim

let log_src = Logs.Src.create "nvmpi.region" ~doc:"NVRegion lifecycle"

module Log = (val Logs.src_log log_src)

(* The two tables index by raw ints (hash keys); every public entry
   point converts at the boundary. *)
type t = {
  layout : Layout.t;
  mem : Memsim.t;
  store : Store.t;
  rng : Random.State.t;
  open_tbl : (int, Region.t) Hashtbl.t;
  used_nvbases : (int, int) Hashtbl.t; (* nvbase -> rid *)
}

let create ?seed ~layout ~mem ~store () =
  let rng =
    match seed with
    | Some s -> Random.State.make [| s |]
    | None -> Random.State.make_self_init ()
  in
  {
    layout;
    mem;
    store;
    rng;
    open_tbl = Hashtbl.create 16;
    used_nvbases = Hashtbl.create 16;
  }

let layout t = t.layout
let store t = t.store
let mem t = t.mem
let create_region t ~size = Store.add t.store ~size

let pick_nvbase t =
  let lo = Layout.data_nvbase_min t.layout in
  let n = Layout.usable_segments t.layout in
  let rec go attempts =
    if attempts > 10_000 then
      failwith "Manager.open_region: no free NV segment found"
    else
      let nb = lo + Random.State.int t.rng n in
      if Hashtbl.mem t.used_nvbases nb then go (attempts + 1) else nb
  in
  go 0

let open_region ?at_nvbase t (rid : Rid.t) =
  match Hashtbl.find_opt t.open_tbl (rid :> int) with
  | Some r -> r
  | None ->
      let blob = Store.find_exn t.store rid in
      if blob.Store.size > Layout.segment_size t.layout then
        invalid_arg
          (Printf.sprintf
             "Manager.open_region: region %d (%d bytes) exceeds segment size"
             (rid :> int)
             blob.Store.size);
      let nvbase =
        match at_nvbase with
        | None -> pick_nvbase t
        | Some (nb : Seg.t) ->
            let nb = (nb :> int) in
            if nb < Layout.data_nvbase_min t.layout
               || nb > Nvmpi_addr.Bitops.mask t.layout.Layout.l2
            then invalid_arg "Manager.open_region: nvbase not in data area";
            if Hashtbl.mem t.used_nvbases nb then
              invalid_arg "Manager.open_region: nvbase occupied";
            nb
      in
      let base = K.vaddr_of_seg t.layout (Seg.v nvbase) in
      Memsim.map t.mem ~addr:base ~size:blob.Store.size;
      Memsim.install t.mem ~addr:base blob.Store.data;
      let r = Region.make ~mem:t.mem ~rid ~base ~size:blob.Store.size in
      Region.check_header r;
      Hashtbl.add t.open_tbl (rid :> int) r;
      Hashtbl.add t.used_nvbases nvbase (rid :> int);
      Log.debug (fun m ->
          m "opened region %d (%d bytes) at %a (nvbase 0x%x)" (rid :> int)
            blob.Store.size Vaddr.pp base nvbase);
      r

let region t (rid : Rid.t) = Hashtbl.find_opt t.open_tbl (rid :> int)

let region_exn t (rid : Rid.t) =
  match region t rid with
  | Some r -> r
  | None ->
      invalid_arg (Printf.sprintf "Manager: region %d not open" (rid :> int))

let is_open t (rid : Rid.t) = Hashtbl.mem t.open_tbl (rid :> int)

let save_region t rid =
  let r = region_exn t rid in
  let blob = Store.find_exn t.store rid in
  Memsim.extract t.mem ~addr:(Region.base r) blob.Store.data

let close_region t (rid : Rid.t) =
  let r = region_exn t rid in
  save_region t rid;
  Memsim.unmap t.mem ~addr:(Region.base r);
  Hashtbl.remove t.open_tbl (rid :> int);
  Hashtbl.remove t.used_nvbases
    (Seg.to_int (K.seg_of_vaddr t.layout (Region.base r)));
  Log.debug (fun m -> m "closed region %d (image persisted)" (rid :> int))

let close_all t =
  List.iter (fun rid -> close_region t (Rid.v rid))
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.open_tbl [])

let open_regions t =
  Hashtbl.fold (fun _ r acc -> r :: acc) t.open_tbl []
  |> List.sort (fun a b -> Rid.compare (Region.rid a) (Region.rid b))

let region_of_addr t a =
  let found = ref None in
  Hashtbl.iter (fun _ r -> if Region.contains r a then found := Some r)
    t.open_tbl;
  !found
