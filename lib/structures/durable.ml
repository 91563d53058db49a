(* Link-and-persist durability discipline (NVTraverse / "Efficient
   Lock-Free Durable Sets"): traversals issue plain loads with no
   persistence actions; only the modification window pays clwb+fence.

   A link made durable in the modification window is published with a
   dirty mark in bit 0 of its 8-byte slot word: the writer sets the
   mark, flushes the line, fences, then clears the mark with a plain
   (unflushed) store. Readers mask the mark; a reader that observes a
   still-marked link — in this sequential simulator that means a
   recovery pass over a crash image, where the unflushed clear never
   landed — helper-flushes the line before proceeding, so recoverability
   never depends on the clear reaching NVM.

   Bit 0 is free in every 8-byte slot encoding: nodes are 8-aligned
   bump allocations, so absolute addresses (normal, swizzle-unpacked),
   intra-region offsets (based, swizzle-packed, packed_fat's payload
   bits), holder-relative diffs (off_holder), RIV words and OID handles
   all store multiples of 8 (or 0 for null). The 16-byte fat encodings
   keep region IDs in word 0 and may straddle a cache line, so they are
   out of scope: [applicable] is false and those representations keep
   the eager discipline regardless of the selected mode.

   The discipline is the machine's ([Machine.create ~durability]),
   copied into each {!Node.t} (field [durability]) unless [Node.make]
   overrides it. Catalogue of the [dur.*] counters: docs/METRICS.md. *)

module Machine = Core.Machine
module Timing = Nvmpi_cachesim.Timing
module Vaddr = Nvmpi_addr.Kinds.Vaddr

(* The mark bit only fits single-word slots; see the header comment. *)
let applicable ~slot_size = slot_size = 8

(* The representations link-and-persist covers: the position-independent
   members of [Repr.all] whose slot holds the mark bit. *)
let reprs =
  List.filter
    (fun k ->
      Core.Repr.position_independent k
      && applicable ~slot_size:(Core.Repr.slot_size k))
    Core.Repr.all

let line_bytes = 64
let mark_bit = 1

(* The selftest double [selftest-dropflush-*] runs on a machine created
   with [~fault:Drop_window_flushes]: every window flush and fence is
   silently dropped, so completed operations never become durable and
   the faultsim durable-set oracle MUST flag the crash images. *)
let window_flush m ~addr =
  match m.Machine.fault with
  | Some Core.Durability.Drop_window_flushes -> ()
  | Some Drop_writeback | None ->
      Timing.flush m.Machine.timing ~addr;
      Machine.bump m Machine.Cell.dur_window_flushes "dur.window_flushes"

let fence m =
  match m.Machine.fault with
  | Some Core.Durability.Drop_window_flushes -> ()
  | Some Drop_writeback | None -> Timing.fence m.Machine.timing

(* Flush every cache line of [addr, addr+len): the modification window's
   clwb over a freshly built node, issued before the node is linked. *)
let flush_range m ~addr ~len =
  if len > 0 then begin
    let a = (addr : Vaddr.t :> int) in
    let first = a land lnot (line_bytes - 1) in
    let last = (a + len - 1) land lnot (line_bytes - 1) in
    let l = ref first in
    while !l <= last do
      window_flush m ~addr:!l;
      l := !l + line_bytes
    done
  end

(* The traversal-side read barrier: one plain load of the raw slot
   word to test the mark. Almost always clean (one extra load per link
   followed); on a marked link — a crash image whose clear store never
   landed — helper-flush the line, fence, and clear the mark before the
   representation decodes the word. *)
let check_mark m ~holder =
  Machine.bump m Machine.Cell.dur_traversal_loads "dur.traversal_loads";
  let raw = Machine.load64 m holder in
  if raw land mark_bit <> 0 then begin
    Timing.flush m.Machine.timing ~addr:(holder : Vaddr.t :> int);
    Timing.fence m.Machine.timing;
    Machine.bump m Machine.Cell.dur_helper_flushes "dur.helper_flushes";
    Machine.store64 m holder (raw land lnot mark_bit);
    Machine.bump m Machine.Cell.dur_marks_cleared "dur.marks_cleared"
  end

(* The modification window's link-and-persist: the representation has
   already stored the (clean) link word at [holder]; set the dirty mark,
   flush the line while marked, fence, then clear the mark with a plain
   store that is deliberately never flushed. A crash image therefore
   either misses the whole store (the old durable link survives) or
   carries the marked link (which {!check_mark} repairs on first read),
   so the link transition is failure-atomic. *)
let persist_link m ~holder =
  let raw = Machine.load64 m holder in
  Machine.store64 m holder (raw lor mark_bit);
  Machine.bump m Machine.Cell.dur_marks_set "dur.marks_set";
  window_flush m ~addr:(holder : Vaddr.t :> int);
  fence m;
  let marked = Machine.load64 m holder in
  Machine.store64 m holder (marked land lnot mark_bit);
  Machine.bump m Machine.Cell.dur_marks_cleared "dur.marks_cleared"
