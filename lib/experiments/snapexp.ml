module Machine = Core.Machine
module Repr = Core.Repr
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Layout = Nvmpi_addr.Layout
module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Vaddr = Nvmpi_addr.Kinds.Vaddr
module Node = Nvmpi_structures.Node
module Objstore = Nvmpi_tx.Objstore
module Kvstore = Nvmpi_apps.Kvstore
module Snapshot = Nvmpi_snapshot.Snapshot
module Zipf = Nvmpi_server.Zipf

(* Write-amplification measurement for the snapshot durability mode
   (docs/SNAPSHOT.md): the same small-update workload run three times —

   - [undo]: per-op undo-log durability. The kvstore rows use the real
     [lib/tx] write path (undo records + clwb/fence per put). The
     structure rows emulate the same discipline at the op boundary: an
     observer records every NVM line the op dirties, and the op then
     appends an old-image undo record per line to a log, flushes it,
     fences, flushes the dirty lines in place and fences again.
   - [snap-line]: un-instrumented mutations, [Snapshot.sync] per op at
     line granularity — only the 64-byte lines actually dirtied are
     logged and written back.
   - [snap-page]: the same sync at page granularity — the
     FAMS/msync-style unit. Every dirtied 4 KiB page is logged whole,
     which is exactly the amplification the snapshot mode exists to
     measure: on small scattered updates, bytes-written(line) must come
     out below bytes-written(page).

   All three arms replay an identical op stream (same seed, same
   draws). "bytes written" is media traffic: 64 bytes per clwb
   ([timing.flushes]) — log appends, write-backs and metadata alike go
   through explicit flushes in every arm, so the column is directly
   comparable. Cycle cells are the regression gate; the experiment is
   additive, with its own committed baseline (BENCH_snapshot.json) and
   never appears in BENCH_seed.json. *)

let keys = 64
let theta = 0.9
let line_bytes = 64

let structures = [ Instance.Hashset; Instance.Btree ]
let structure_reprs = [ Repr.Off_holder; Repr.Riv ]
let kv_reprs = [ Repr.Off_holder; Repr.Riv; Repr.Based ]

type arm = Undo | Snap of Snapshot.granularity

let arm_label = function
  | Undo -> "undo"
  | Snap g -> "snap-" ^ Snapshot.granularity_to_string g

let scaled scale n = max 120 (int_of_float (float_of_int n *. scale))

let counter name counters =
  Option.value ~default:0 (List.assoc_opt name counters)

let boot ~seed repr =
  let store = Store.create () in
  let machine = Machine.create ~seed ~store () in
  let rid = Machine.create_region machine ~size:(1 lsl 21) in
  let region = Machine.open_region machine rid in
  if repr = Repr.Based then Machine.set_based_region machine rid;
  (machine, region)

(* Emulated undo-log discipline for the structure rows: old-image
   records ([8-byte header | 64-byte line image]) appended through the
   observed access path so the log traffic costs real stores and real
   flushes, mirroring lib/tx's add_range choreography. *)
let undo_logger machine region =
  let mem = machine.Machine.mem in
  let layout = machine.Machine.layout in
  let log_cap = 256 * 1024 in
  let log = Region.alloc region log_cap in
  let cursor = ref 0 in
  let lines = ref [] in
  let seen = Hashtbl.create 64 in
  let recording = ref false in
  Memsim.add_observer mem (fun ~write ~addr ~size:_ ->
      if write && !recording && Layout.in_nv_space layout addr then begin
        let l = addr land lnot (line_bytes - 1) in
        if not (Hashtbl.mem seen l) then begin
          Hashtbl.add seen l ();
          lines := l :: !lines
        end
      end);
  let op_boundary () =
    recording := false;
    let dirty = List.rev !lines in
    lines := [];
    Hashtbl.reset seen;
    if dirty <> [] then begin
      let timing = machine.Machine.timing in
      (* Undo records first: old images must be durable before the
         mutated lines may be written back. *)
      List.iter
        (fun l ->
          if !cursor + 8 + line_bytes > log_cap then cursor := 0;
          let rec_base = Vaddr.add log !cursor in
          Memsim.store64 mem rec_base l;
          for w = 0 to (line_bytes / 8) - 1 do
            Memsim.store64 mem
              (Vaddr.add rec_base (8 + (w * 8)))
              (Memsim.load64 mem (Vaddr.v (l + (w * 8))))
          done;
          let lo = (rec_base :> int) land lnot (line_bytes - 1) in
          let hi = (rec_base :> int) + 8 + line_bytes - 1 in
          let rec flush_at a =
            if a <= hi then begin
              Timing.flush timing ~addr:a;
              flush_at (a + line_bytes)
            end
          in
          flush_at lo;
          cursor := !cursor + 8 + line_bytes)
        dirty;
      Timing.fence timing;
      List.iter (fun l -> Timing.flush timing ~addr:l) dirty;
      Timing.fence timing
    end
  in
  (recording, op_boundary)

let run_structure ~ops ~seed structure repr arm =
  let machine, region = boot ~seed repr in
  let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload:32 in
  let inst = Instance.create structure repr node ~name:"snapexp" in
  let per_op =
    match arm with
    | Undo ->
        let recording, op_boundary = undo_logger machine region in
        fun f ->
          recording := true;
          f ();
          op_boundary ()
    | Snap granularity ->
        let snap = Snapshot.create machine region ~granularity () in
        fun f ->
          f ();
          Snapshot.sync snap
  in
  for k = 1 to keys do
    inst.Instance.insert k
  done;
  (match arm with
  | Undo -> ()
  | Snap _ ->
      (* Drain the preload out of the dirty set so the measured epochs
         start clean, matching the undo arm's empty log. *)
      per_op (fun () -> ()));
  let rng = Random.State.make [| seed; 0x5A9E |] in
  let z = Zipf.v ~n:keys ~theta in
  let metrics = Machine.metrics machine in
  let before = Metrics.snapshot metrics in
  let c0 = Machine.cycles machine in
  for op = 1 to ops do
    let key = 1 + Zipf.next z rng in
    let r = Random.State.int rng 100 in
    per_op (fun () ->
        if r < 50 then ignore (inst.Instance.search key)
        else if r mod 2 = 0 then inst.Instance.insert (keys + op)
        else ignore (inst.Instance.remove key))
  done;
  let cycles = Machine.cycles machine - c0 in
  let counters = Metrics.diff ~before ~after:(Metrics.snapshot metrics) in
  (cycles, counters)

let run_kv ~ops ~seed repr arm =
  let machine, region = boot ~seed repr in
  let snap =
    match arm with
    | Undo -> None
    | Snap granularity -> Some (Snapshot.create machine region ~granularity ())
  in
  (* The undo arm keeps the default palloc heap (its op log is part of
     the discipline being measured); the snapshot arms pin the
     flush-free freelist so nothing but sync touches durability. *)
  let heap, write_path =
    match arm with Undo -> (`Palloc, `Tx) | Snap _ -> (`Freelist, `Plain)
  in
  let os = Objstore.create machine region ~heap () in
  let kv = Kvstore.create os ~repr ~name:"kv" ~buckets:32 ~write_path () in
  for k = 1 to keys do
    Kvstore.put kv ~key:k (Printf.sprintf "v0-%04d" k)
  done;
  Option.iter Snapshot.sync snap;
  let rng = Random.State.make [| seed; 0x5A9F |] in
  let z = Zipf.v ~n:keys ~theta in
  let metrics = Machine.metrics machine in
  let before = Metrics.snapshot metrics in
  let c0 = Machine.cycles machine in
  for op = 1 to ops do
    let key = 1 + Zipf.next z rng in
    let r = Random.State.int rng 100 in
    if r < 30 then ignore (Kvstore.get kv ~key)
    else if r mod 5 = 0 then ignore (Kvstore.delete kv ~key)
    else Kvstore.put kv ~key (Printf.sprintf "v%d-%04d" op key);
    Option.iter Snapshot.sync snap
  done;
  let cycles = Machine.cycles machine - c0 in
  let counters = Metrics.diff ~before ~after:(Metrics.snapshot metrics) in
  (cycles, counters)

let arms = [ Undo; Snap Snapshot.Line; Snap Snapshot.Page ]

let table ?(scale = 1.0) ?seed () =
  let seed = Option.value seed ~default:19 in
  let ops = scaled scale 600 in
  let row name runner =
    let results = List.map (fun arm -> (arm, runner arm)) arms in
    let bytes counters = counter "timing.flushes" counters * line_bytes in
    let cell (arm, (cycles, counters)) =
      Json.Obj
        [
          ("label", Json.String (arm_label arm));
          ("cycles", Json.Int cycles);
          ("bytes_written", Json.Int (bytes counters));
          ("counters", Metrics.json_of_counters counters);
        ]
    in
    let get arm = List.assoc arm results in
    let line_b = bytes (snd (get (Snap Snapshot.Line))) in
    let page_b = bytes (snd (get (Snap Snapshot.Page))) in
    ( [
        name;
        string_of_int (fst (get Undo));
        string_of_int (fst (get (Snap Snapshot.Line)));
        string_of_int (fst (get (Snap Snapshot.Page)));
        string_of_int (bytes (snd (get Undo)));
        string_of_int line_b;
        string_of_int page_b;
        (if line_b = 0 then "-"
         else Printf.sprintf "%.1fx" (float_of_int page_b /. float_of_int line_b));
      ],
      Json.Obj
        [
          ("row", Json.String name);
          ("cells", Json.List (List.map cell results));
        ] )
  in
  let structure_rows =
    List.concat_map
      (fun structure ->
        List.map
          (fun repr ->
            row
              (Printf.sprintf "%s/%s"
                 (Instance.structure_name structure)
                 (Repr.to_string repr))
              (fun arm -> run_structure ~ops ~seed structure repr arm))
          structure_reprs)
      structures
  in
  let kv_rows =
    List.map
      (fun repr ->
        row
          (Printf.sprintf "kvstore/%s" (Repr.to_string repr))
          (fun arm -> run_kv ~ops ~seed repr arm))
      kv_reprs
  in
  let rows, records = List.split (structure_rows @ kv_rows) in
  {
    Table.title =
      "Snapshot durability: per-op undo logging vs line- and \
       page-granular snapshot sync";
    header =
      [
        "workload/repr";
        "undo cycles";
        "snap-line cycles";
        "snap-page cycles";
        "undo bytes";
        "snap-line bytes";
        "snap-page bytes";
        "page/line";
      ];
    rows;
    notes =
      [
        Printf.sprintf
          "%d ops over %d keys (theta %g), sync per op; bytes = \
           timing.flushes x %d (media line write-backs: undo records, \
           WAL appends, in-place write-backs and metadata alike); \
           snap.* counters in the snapshot cells break the WAL traffic \
           out (docs/SNAPSHOT.md, docs/METRICS.md)"
          ops keys theta line_bytes;
      ];
    records;
  }
