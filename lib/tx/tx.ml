module Machine = Core.Machine
module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Vaddr = Nvmpi_addr.Kinds.Vaddr

(* The write set of the transaction in flight lives in two int arrays
   that grow on demand and serve every transaction of [t] in turn, so
   [create] allocates no table and no word or line is hashed. *)
type t = {
  os : Objstore.t;
  mutable active : bool;
  (* The byte ranges undo-logged or registered fresh this tx: range [i]
     is [[logged.(2i), logged.(2i + 1))], its start rounded down to a
     word, for [i] below [n_ranges]. *)
  mutable logged : int array;
  mutable n_ranges : int;
  (* The line addresses dirtied this tx, each once, in the order they
     were first dirtied, below [n_dirty]. *)
  mutable dirty : int array;
  mutable n_dirty : int;
}

exception Not_in_transaction
exception Already_in_transaction

let create os =
  { os; active = false; logged = [||]; n_ranges = 0; dirty = [||]; n_dirty = 0 }

let objstore t = t.os
let active t = t.active
let mem t = (Objstore.machine t.os).Machine.mem
let timing t = (Objstore.machine t.os).Machine.timing

let line_of t a =
  let bits = (Timing.cfg (timing t)).Nvmpi_cachesim.Timing_config.line_bits in
  a land lnot ((1 lsl bits) - 1)

(* [a]'s first [n] entries in an array of twice the length. *)
let grow a n =
  let b = Array.make (max 16 (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 n;
  b

let log_range t ~lo ~hi =
  let i = 2 * t.n_ranges in
  if i = Array.length t.logged then t.logged <- grow t.logged i;
  t.logged.(i) <- lo land lnot 7;
  t.logged.(i + 1) <- hi;
  t.n_ranges <- t.n_ranges + 1

(* Is the aligned word at [a] in a logged range? *)
let logged t a =
  let rec go i =
    i >= 0 && ((t.logged.(i) <= a && a < t.logged.(i + 1)) || go (i - 2))
  in
  go ((2 * t.n_ranges) - 2)

(* A transaction dirties tens of lines, so a linear scan for the line
   is cheap, and it keeps the set in first-dirtied order. *)
let dirty_line t line =
  let rec seen i = i >= 0 && (t.dirty.(i) = line || seen (i - 1)) in
  if not (seen (t.n_dirty - 1)) then begin
    if t.n_dirty = Array.length t.dirty then t.dirty <- grow t.dirty t.n_dirty;
    t.dirty.(t.n_dirty) <- line;
    t.n_dirty <- t.n_dirty + 1
  end

let finish t =
  t.active <- false;
  t.n_ranges <- 0;
  t.n_dirty <- 0

let begin_tx t =
  if t.active then raise Already_in_transaction;
  t.active <- true

(* The flushes all fall between the same two fences and each removes
   only its own line, so their order moves no cycle and no durable
   byte. *)
let commit t =
  if not t.active then raise Not_in_transaction;
  for i = 0 to t.n_dirty - 1 do
    Timing.flush (timing t) ~addr:t.dirty.(i)
  done;
  Timing.fence (timing t);
  Objstore.log_reset t.os;
  finish t

let abort t =
  if not t.active then raise Not_in_transaction;
  Objstore.log_rollback t.os;
  finish t

let simulate_crash t =
  if not t.active then raise Not_in_transaction;
  finish t;
  (* With a faultsim tracker attached, materialize the full-cache-loss
     crash: live memory reverts to its durable (flushed-and-fenced)
     bytes. Without one there is no durability record, so memory is
     conservatively left as-is — every dirty line "happened" to reach
     NVM, the worst torn state the undo log must recover from. *)
  match (Objstore.machine t.os).Machine.crash_hook with
  | Some materialize -> materialize ()
  | None -> ()

let run t f =
  begin_tx t;
  match f () with
  | v ->
      commit t;
      v
  | exception e ->
      abort t;
      raise e

let add_range t ~addr:(addr : Vaddr.t) ~len =
  if not t.active then raise Not_in_transaction;
  Objstore.log_append t.os ~addr ~len;
  let addr = (addr :> int) in
  log_range t ~lo:addr ~hi:(addr + len);
  dirty_line t (line_of t addr);
  dirty_line t (line_of t (addr + len - 1))

(* Freshly allocated ranges hold no old data worth undo-logging, but
   their bytes still have to reach NVM when the transaction commits —
   otherwise a crash after commit leaves durable pointers into
   never-persisted objects. Logging the range suppresses per-store log
   records; marking every covered line dirty makes [commit] flush
   them. *)
let add_fresh t ~addr:(addr : Vaddr.t) ~len =
  if not t.active then raise Not_in_transaction;
  if len <= 0 then invalid_arg "Tx.add_fresh";
  let addr = (addr :> int) in
  log_range t ~lo:addr ~hi:(addr + len);
  let last = line_of t (addr + len - 1) in
  let step = 1 lsl (Timing.cfg (timing t)).Nvmpi_cachesim.Timing_config.line_bits in
  let rec cover l =
    if l <= last then begin
      dirty_line t l;
      cover (l + step)
    end
  in
  cover (line_of t addr)

let store64 t (a : Vaddr.t) v =
  if t.active then begin
    let w = (a :> int) in
    if not (logged t w) then begin
      Objstore.log_append t.os ~addr:a ~len:8;
      log_range t ~lo:w ~hi:(w + 8)
    end;
    dirty_line t (line_of t w)
  end;
  Memsim.store64 (mem t) a v

let load64 t (a : Vaddr.t) =
  Objstore.touch_read t.os;
  Memsim.load64 (mem t) a
