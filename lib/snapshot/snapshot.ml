(* Failure-atomic snapshot durability (FAMS/WAL): see snapshot.mli and
   docs/SNAPSHOT.md for the protocol. The log record format and the
   clwb+fence choreography mirror lib/tx's undo log and lib/palloc's
   operation log: every record is [offset(8) | len(8) | payload], all
   offsets region-relative so the persisted state is position
   independent. *)

module Machine = Core.Machine
module Region = Nvmpi_nvregion.Region
module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Metrics = Nvmpi_obs.Metrics
module Vaddr = Nvmpi_addr.Kinds.Vaddr
module Bitops = Nvmpi_addr.Bitops

type granularity = Core.Durability.granularity = Line | Page

let granularity_to_string = function Line -> "line" | Page -> "page"

let magic = 0x534E415053484F54 land ((1 lsl 62) - 1) (* "SNAPSHOT" truncated *)
let root_name = "__snapshot"

(* Metadata word layout (offsets from the meta page). The meta page and
   the log are whole, page-aligned pages so no protocol line or page is
   ever shared with tracked data — flushing the log must never stage a
   neighbouring data byte mid-epoch (that would leak part of an epoch
   past the commit point). *)
let m_magic = 0
let m_gran = 8
let m_log_off = 16
let m_log_cap = 24
let m_commit = 32

type t = {
  machine : Machine.t;
  mutable region : Region.t;
  mutable base : int; (* current absolute base of the watched region *)
  size : int;
  meta_off : int; (* region-relative; the meta page *)
  log_off : int;
  log_cap : int;
  gran : granularity;
  line : int;
  line_bits : int;
  page : int;
  page_bits : int;
  (* Dirty units of the current epoch, keyed by region-relative unit
     index. Both granularities are always tracked (the counters expose
     the amplification ratio); [gran] only selects what sync logs. *)
  lines : (int, unit) Hashtbl.t;
  pages : (int, unit) Hashtbl.t;
  mutable pending : int; (* log bytes the dirty set needs at [gran] *)
  mutable tracking : bool; (* false inside protocol code *)
  mutable dead : bool; (* [disable]d: the observer stays inert *)
  c_syncs : int ref;
  c_dirty_lines : int ref;
  c_dirty_pages : int ref;
  c_log_records : int ref;
  c_log_bytes : int ref;
  c_commits : int ref;
  c_wb_flushes : int ref;
  c_truncates : int ref;
  c_replays : int ref;
  c_replayed_bytes : int ref;
}

let granularity t = t.gran
let region t = t.region
let dirty_lines t = Hashtbl.length t.lines
let dirty_pages t = Hashtbl.length t.pages
let pending_log_bytes t = t.pending
let log_capacity t = t.log_cap
let mem t = t.machine.Machine.mem
let timing t = t.machine.Machine.timing

let meta_addr t field = Vaddr.v (t.base + t.meta_off + field)
let meta_get t field = Memsim.load64 (mem t) (meta_addr t field)
let meta_set t field v = Memsim.store64 (mem t) (meta_addr t field) v
let committed_bytes t = meta_get t m_commit

(* Flush every cache line of the absolute range [addr, addr+len). *)
let flush_range t ~addr ~len =
  if len > 0 then begin
    let first = addr land lnot (t.line - 1) in
    let last = (addr + len - 1) land lnot (t.line - 1) in
    let a = ref first in
    while !a <= last do
      Timing.flush (timing t) ~addr:!a;
      a := !a + t.line
    done
  end

(* The access observer: record which lines and pages of the watched
   window a store touches. Protocol pages (meta + log) are excluded —
   sync must not track its own log appends — and protocol code runs
   with [tracking] off so replay's in-place copies don't re-dirty the
   data they repair. Pure host-side bookkeeping: no simulated access,
   no charge. *)
let observe t ~write ~addr ~size =
  if write && t.tracking then begin
    let rel = addr - t.base in
    if
      rel >= 0 && rel < t.size
      && not (rel >= t.meta_off && rel < t.log_off + t.log_cap)
    then begin
      let l0 = rel lsr t.line_bits and l1 = (rel + size - 1) lsr t.line_bits in
      for l = l0 to l1 do
        if not (Hashtbl.mem t.lines l) then begin
          Hashtbl.add t.lines l ();
          incr t.c_dirty_lines;
          if t.gran = Line then t.pending <- t.pending + 16 + t.line
        end
      done;
      let p0 = rel lsr t.page_bits and p1 = (rel + size - 1) lsr t.page_bits in
      for p = p0 to p1 do
        if not (Hashtbl.mem t.pages p) then begin
          Hashtbl.add t.pages p ();
          incr t.c_dirty_pages;
          if t.gran = Page then t.pending <- t.pending + 16 + t.page
        end
      done
    end
  end

let log2 n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 0

let make machine region ~meta_off ~log_off ~log_cap ~gran =
  let m = Machine.metrics machine in
  let cfg = Timing.cfg machine.Machine.timing in
  let line_bits = cfg.Nvmpi_cachesim.Timing_config.line_bits in
  let page = Memsim.Page_image.page_size in
  let t =
    {
      machine;
      region;
      base = (Region.base region :> int);
      size = Region.size region;
      meta_off;
      log_off;
      log_cap;
      gran;
      line = 1 lsl line_bits;
      line_bits;
      page;
      page_bits = log2 page;
      lines = Hashtbl.create 256;
      pages = Hashtbl.create 64;
      pending = 0;
      tracking = false;
      dead = false;
      c_syncs = Metrics.counter m "snap.syncs";
      c_dirty_lines = Metrics.counter m "snap.dirty_lines";
      c_dirty_pages = Metrics.counter m "snap.dirty_pages";
      c_log_records = Metrics.counter m "snap.log_records";
      c_log_bytes = Metrics.counter m "snap.log_bytes";
      c_commits = Metrics.counter m "snap.commits";
      c_wb_flushes = Metrics.counter m "snap.wb_flushes";
      c_truncates = Metrics.counter m "snap.truncates";
      c_replays = Metrics.counter m "snap.replays";
      c_replayed_bytes = Metrics.counter m "snap.replayed_bytes";
    }
  in
  Memsim.add_observer machine.Machine.mem (fun ~write ~addr ~size ->
      observe t ~write ~addr ~size);
  t

let create machine region ?granularity ?(log_cap = 64 * 1024) () =
  let gran =
    match (granularity, machine.Machine.durability) with
    | Some g, _ | None, Snapshot g -> g
    | None, (Eager | Traverse) -> Line
  in
  let page = Memsim.Page_image.page_size in
  let log_cap = Bitops.align_up log_cap page in
  let meta = Region.alloc region ~align:page page in
  let log = Region.alloc region ~align:page log_cap in
  let base = Region.base region in
  let meta_off = Vaddr.offset_in meta ~base in
  let log_off = Vaddr.offset_in log ~base in
  let t = make machine region ~meta_off ~log_off ~log_cap ~gran in
  meta_set t m_magic magic;
  meta_set t m_gran (match gran with Line -> 0 | Page -> 1);
  meta_set t m_log_off log_off;
  meta_set t m_log_cap log_cap;
  meta_set t m_commit 0;
  Region.set_root region root_name meta;
  t.tracking <- true;
  t

(* Run [f] with tracking off; protocol code (sync, replay) must never
   observe its own accesses. *)
let untracked t f =
  t.tracking <- false;
  Fun.protect ~finally:(fun () -> t.tracking <- not t.dead) f

let log_addr t pos = Vaddr.v (t.base + t.log_off + pos)
let data_addr t off = Vaddr.v (t.base + off)

(* Observed byte-exact copy between two simulated addresses. This must
   NOT round-trip words through load64/store64: a 63-bit OCaml int
   sign-extends into memory bit 63 on store, so any word whose bit 62
   is set (e.g. a root name or string byte >= 0x40 in the top byte)
   would come back altered. The blits are observed like a word-wise
   copy but move raw bytes. *)
let copy t ~src ~dst ~len =
  Memsim.blit_from_bytes (mem t) ~addr:dst
    (Memsim.blit_to_bytes (mem t) ~addr:src ~len)

(* The dirty units sync will log, as sorted (offset, len) pairs —
   ascending offsets keep the log (and so every downstream report)
   deterministic whatever the hashtable iteration order. *)
let units t =
  let unit_size, tbl, bits =
    match t.gran with
    | Line -> (t.line, t.lines, t.line_bits)
    | Page -> (t.page, t.pages, t.page_bits)
  in
  Hashtbl.fold (fun k () acc -> k :: acc) tbl []
  |> List.sort compare
  |> List.map (fun k ->
         let off = k lsl bits in
         (off, min unit_size (t.size - off)))

let clear_dirty t =
  Hashtbl.reset t.lines;
  Hashtbl.reset t.pages;
  t.pending <- 0

(* Step 4: durably zero the commit record. Shared by sync and replay. *)
let truncate t =
  meta_set t m_commit 0;
  Timing.flush (timing t) ~addr:((meta_addr t m_commit :> int));
  Timing.fence (timing t);
  incr t.c_truncates

let replay_committed t =
  let committed = meta_get t m_commit in
  if committed > 0 then begin
    if committed > t.log_cap then failwith "Snapshot.replay: corrupt log length";
    let pos = ref 0 in
    while !pos < committed do
      let off = Memsim.load64 (mem t) (log_addr t !pos) in
      let len = Memsim.load64 (mem t) (log_addr t (!pos + 8)) in
      if
        len <= 0 || len > t.page || off < 0
        || off + len > t.size
        || !pos + 16 + len > committed
      then failwith "Snapshot.replay: corrupt log record";
      copy t ~src:(log_addr t (!pos + 16)) ~dst:(data_addr t off) ~len;
      flush_range t ~addr:(t.base + off) ~len;
      pos := !pos + 16 + len
    done;
    Timing.fence (timing t);
    truncate t;
    incr t.c_replays;
    t.c_replayed_bytes := !(t.c_replayed_bytes) + committed
  end

let replay t = untracked t (fun () -> replay_committed t)

let attach machine region =
  match Region.root region root_name with
  | None -> failwith "Snapshot.attach: region holds no snapshot"
  | Some meta ->
      let mem = machine.Machine.mem in
      if Memsim.load64 mem meta <> magic then
        failwith "Snapshot.attach: bad snapshot magic";
      let base = Region.base region in
      let meta_off = Vaddr.offset_in meta ~base in
      let gran =
        if Memsim.load64 mem (Vaddr.add meta m_gran) = 0 then Line else Page
      in
      let log_off = Memsim.load64 mem (Vaddr.add meta m_log_off) in
      let log_cap = Memsim.load64 mem (Vaddr.add meta m_log_cap) in
      let t = make machine region ~meta_off ~log_off ~log_cap ~gran in
      (* Recovery: a committed-but-untruncated log means a sync (or an
         earlier replay) was cut short — reinstall the epoch. *)
      replay t;
      t.tracking <- true;
      t

let retarget t region =
  t.region <- region;
  t.base <- (Region.base region :> int)

let disable t =
  t.dead <- true;
  t.tracking <- false

let sync ?stop_after t =
  incr t.c_syncs;
  let us = units t in
  if us <> [] then
    untracked t (fun () ->
        (* Step 1: append one record per dirty unit, flush, fence. *)
        let pos = ref 0 in
        List.iter
          (fun (off, len) ->
            if !pos + 16 + len > t.log_cap then
              failwith "Snapshot.sync: write-ahead log full";
            Memsim.store64 (mem t) (log_addr t !pos) off;
            Memsim.store64 (mem t) (log_addr t (!pos + 8)) len;
            copy t ~src:(data_addr t off) ~dst:(log_addr t (!pos + 16)) ~len;
            incr t.c_log_records;
            t.c_log_bytes := !(t.c_log_bytes) + 16 + len;
            pos := !pos + 16 + len)
          us;
        flush_range t ~addr:(t.base + t.log_off) ~len:!pos;
        Timing.fence (timing t);
        (* Step 2: the commit record — after this fence the epoch is
           durable (via replay) whatever happens. *)
        meta_set t m_commit !pos;
        Timing.flush (timing t) ~addr:((meta_addr t m_commit :> int));
        Timing.fence (timing t);
        incr t.c_commits;
        clear_dirty t;
        match stop_after with
        | Some `Commit -> ()
        | None ->
            (* Step 3: write the epoch back in place. A machine created
               with [~fault:Drop_writeback] (the selftest double) drops
               this entirely — including the fence — while step 4 still
               durably truncates: the protocol-ordering bug the snapshot
               oracle must catch. *)
            (match t.machine.Machine.fault with
            | Some Core.Durability.Drop_writeback -> ()
            | Some Drop_window_flushes | None ->
                List.iter
                  (fun (off, len) ->
                    flush_range t ~addr:(t.base + off) ~len;
                    t.c_wb_flushes :=
                      !(t.c_wb_flushes) + ((len + t.line - 1) / t.line))
                  us;
                Timing.fence (timing t));
            (* Step 4: truncate. *)
            truncate t)
