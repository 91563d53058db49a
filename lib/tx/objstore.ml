module Machine = Core.Machine
module Region = Nvmpi_nvregion.Region
module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Freelist = Nvmpi_alloc.Freelist
module Palloc = Nvmpi_palloc.Palloc
module Bitops = Nvmpi_addr.Bitops
module Vaddr = Nvmpi_addr.Kinds.Vaddr

(* Two heap backends share the [heap_lo, heap_hi) window recorded in
   the metadata block: the legacy first-fit freelist and the
   recoverable size-class palloc. Which one a region uses is
   self-describing — palloc heaps start with their superblock magic —
   so the metadata layout (and with it the pinned placement of every
   object in the committed bench baseline) never changed. *)
type heap = Fl of Freelist.t | Pa of Palloc.t

type t = {
  machine : Machine.t;
  region : Region.t;
  meta : Vaddr.t; (* absolute address of the store's metadata block *)
  heap : heap;
  rolled_back : int; (* undo records [attach] found and rolled back *)
}

let wrap_unit = 128
let header_bytes = 32
let read_overhead_cycles = 12
let magic = 0x4F424A53544F5245 land ((1 lsl 62) - 1) (* "OBJSTORE" truncated *)

(* Metadata block layout (offsets from [meta]); all region-relative
   offsets so the store is position independent. *)
let m_magic = 0
let m_log_off = 8
let m_log_cap = 16
let m_log_len = 24
let m_heap_lo = 32
let m_heap_hi = 40
let m_alive = 48
let meta_bytes = 56

let root_name = "__objstore"

let machine t = t.machine
let region t = t.region
let mem t = t.machine.Machine.mem

let meta_get t field = Memsim.load64 (mem t) (Vaddr.add t.meta field)
let meta_set t field v = Memsim.store64 (mem t) (Vaddr.add t.meta field) v

let create machine region ?(log_cap = 256 * 1024) ?(heap = `Palloc) () =
  let mem = machine.Machine.mem in
  let meta = Region.alloc region meta_bytes in
  let log = Region.alloc region log_cap in
  (* Everything left in the region becomes the object heap. *)
  let base = (Region.base region :> int) in
  let heap_lo = base + Region.heap_top region in
  let heap_lo = Bitops.align_up heap_lo 8 in
  let heap_hi = base + Region.size region in
  let heap_hi = heap_hi land lnot 7 in
  Region.set_heap_top region (heap_hi - base);
  let heap =
    match heap with
    | `Freelist ->
        Fl (Freelist.init mem ~lo:(Vaddr.v heap_lo) ~hi:(Vaddr.v heap_hi))
    | `Palloc ->
        Pa
          (Palloc.init ~mem ~timing:machine.Machine.timing
             ~metrics:(Machine.metrics machine) ~lo:(Vaddr.v heap_lo)
             ~hi:(Vaddr.v heap_hi))
  in
  let t = { machine; region; meta; heap; rolled_back = 0 } in
  Memsim.store64 mem (Vaddr.add meta m_magic) magic;
  meta_set t m_log_off (Vaddr.offset_in log ~base:(Region.base region));
  meta_set t m_log_cap log_cap;
  meta_set t m_log_len 0;
  meta_set t m_heap_lo (heap_lo - base);
  meta_set t m_heap_hi (heap_hi - base);
  meta_set t m_alive 0;
  Region.set_root region root_name meta;
  t

(* The log is addressed region-relative in its persisted form; these
   helpers rebuild absolute addresses from the region base. *)
let log_base t = Vaddr.add (Region.base t.region) (meta_get t m_log_off)

let log_entries_of t =
  (* Count entries by walking the log. *)
  let log = log_base t in
  let len = meta_get t m_log_len in
  let rec go pos n =
    if pos >= len then n
    else
      let elen = Memsim.load64 (mem t) (Vaddr.add log (pos + 8)) in
      go (pos + 16 + Bitops.align_up elen 8) (n + 1)
  in
  go 0 0

let log_entries t = log_entries_of t

let log_reset t =
  meta_set t m_log_len 0;
  Timing.flush t.machine.Machine.timing ~addr:((t.meta :> int) + m_log_len);
  Timing.fence t.machine.Machine.timing

(* Applies the undo records newest-first, truncates the log and returns
   how many records there were. *)
let rollback t =
  let base = Region.base t.region in
  let log = log_base t in
  let len = meta_get t m_log_len in
  (* Collect entry positions, then restore newest-first. *)
  let rec collect pos acc =
    if pos >= len then acc
    else
      let elen = Memsim.load64 (mem t) (Vaddr.add log (pos + 8)) in
      collect (pos + 16 + Bitops.align_up elen 8) ((pos, elen) :: acc)
  in
  let entries = collect 0 [] in
  List.iter
    (fun (pos, elen) ->
      let off = Memsim.load64 (mem t) (Vaddr.add log pos) in
      let data =
        Memsim.blit_to_bytes (mem t) ~addr:(Vaddr.add log (pos + 16)) ~len:elen
      in
      Memsim.blit_from_bytes (mem t) ~addr:(Vaddr.add base off) data)
    entries;
  log_reset t;
  List.length entries

let log_rollback t = ignore (rollback t)

let attach machine region =
  match Region.root region root_name with
  | None -> failwith "Objstore.attach: region holds no object store"
  | Some meta ->
      let mem = machine.Machine.mem in
      if Memsim.load64 mem (Vaddr.add meta m_magic) <> magic then
        failwith "Objstore.attach: bad object-store magic";
      let base = Region.base region in
      let heap_lo = Vaddr.add base (Memsim.load64 mem (Vaddr.add meta m_heap_lo)) in
      let heap_hi = Vaddr.add base (Memsim.load64 mem (Vaddr.add meta m_heap_hi)) in
      (* The heap window self-describes its backend. Palloc heaps go
         through [recover]: O(1) on a heap [close] left, a resolve plus
         list rebuild on any other image. *)
      let heap =
        if Palloc.is_formatted mem ~lo:heap_lo then
          Pa
            (Palloc.recover ~mem ~timing:machine.Machine.timing
               ~metrics:(Machine.metrics machine) ~lo:heap_lo ~hi:heap_hi)
        else Fl (Freelist.attach mem ~lo:heap_lo ~hi:heap_hi)
      in
      let t = { machine; region; meta; heap; rolled_back = 0 } in
      (* A non-empty persisted log means a transaction was interrupted:
         roll it back before anyone reads torn data. *)
      if meta_get t m_log_len > 0 then { t with rolled_back = rollback t }
      else t

let rolled_back t = t.rolled_back

let log_append t ~addr ~len =
  let log = log_base t in
  let pos = meta_get t m_log_len in
  let entry_len = 16 + Bitops.align_up len 8 in
  if pos + entry_len > meta_get t m_log_cap then
    failwith "Objstore.log_append: undo log full";
  Memsim.store64 (mem t) (Vaddr.add log pos)
    (Vaddr.offset_in addr ~base:(Region.base t.region));
  Memsim.store64 (mem t) (Vaddr.add log (pos + 8)) len;
  let data = Memsim.blit_to_bytes (mem t) ~addr ~len in
  Memsim.blit_from_bytes (mem t) ~addr:(Vaddr.add log (pos + 16)) data;
  (* Persist the entry before the in-place store may happen. *)
  let timing = t.machine.Machine.timing in
  Timing.flush_range timing ~addr:((log :> int) + pos) ~len:entry_len;
  Timing.fence timing;
  meta_set t m_log_len (pos + entry_len);
  Timing.flush timing ~addr:((t.meta :> int) + m_log_len);
  Timing.fence timing

(* Objects: [header | payload], allocated from the freelist in
   multiples of [wrap_unit]. Header: tag, payload size, version, flags. *)

let heap_alloc t n =
  match t.heap with Fl h -> Freelist.alloc h n | Pa h -> Palloc.alloc h n

let heap_free t addr =
  match t.heap with Fl h -> Freelist.free h addr | Pa h -> Palloc.free h addr

let heap_block_count t =
  match t.heap with
  | Fl h -> Freelist.block_count h
  | Pa h -> Palloc.block_count h

let heap_check t =
  match t.heap with Fl h -> Freelist.check h | Pa h -> Palloc.check h

let close t = match t.heap with Fl _ -> () | Pa h -> Palloc.close h

let alloc t ?(tag = 0) ~size () =
  if size <= 0 then invalid_arg "Objstore.alloc: non-positive size";
  let total = Bitops.align_up (header_bytes + size) wrap_unit in
  let block = heap_alloc t total in
  Memsim.store64 (mem t) block tag;
  Memsim.store64 (mem t) (Vaddr.add block 8) size;
  Memsim.store64 (mem t) (Vaddr.add block 16) 1;
  Memsim.store64 (mem t) (Vaddr.add block 24) 0;
  meta_set t m_alive (meta_get t m_alive + 1);
  Vaddr.add block header_bytes

let free t payload =
  heap_free t (Vaddr.add payload (-header_bytes));
  meta_set t m_alive (meta_get t m_alive - 1)

let obj_tag t payload = Memsim.load64 (mem t) (Vaddr.add payload (-header_bytes))

let obj_size t payload =
  Memsim.load64 (mem t) (Vaddr.add payload (-header_bytes + 8))

let touch_read t = Machine.alu t.machine read_overhead_cycles
let objects_alive t = meta_get t m_alive
