module Machine = Core.Machine
module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Timing_config = Nvmpi_cachesim.Timing_config
module Manager = Nvmpi_nvregion.Manager
module Region = Nvmpi_nvregion.Region
module Metrics = Nvmpi_obs.Metrics
module Rid = Nvmpi_addr.Kinds.Rid
module Vaddr = Nvmpi_addr.Kinds.Vaddr

type tracked = {
  rid : Rid.t;
  base : int;
  size : int;
  init : Memsim.Page_image.t;
  state : Image.t; (* live durable state, folded as events arrive *)
}

type t = {
  machine : Machine.t;
  line : int;
  mutable armed : bool;
  mutable tracked : tracked list;
  mutable buf : Events.t array;
  mutable len : int;
  c_stores : int ref;
  c_flushes : int ref;
  c_fences : int ref;
}

let push t e =
  if t.len = Array.length t.buf then begin
    let nb = Array.make (max 256 (2 * t.len)) Events.Fence in
    Array.blit t.buf 0 nb 0 t.len;
    t.buf <- nb
  end;
  t.buf.(t.len) <- e;
  t.len <- t.len + 1

let overlaps tr ~lo ~hi = lo < tr.base + tr.size && hi > tr.base

let on_store t addr size =
  if List.exists (fun tr -> overlaps tr ~lo:addr ~hi:(addr + size)) t.tracked
  then begin
    let e = Events.Store { addr; size } in
    push t e;
    incr t.c_stores;
    List.iter (fun tr -> Image.apply tr.state e) t.tracked
  end

let on_flush t addr =
  let line_lo = addr land lnot (t.line - 1) in
  match
    List.find_opt
      (fun tr -> overlaps tr ~lo:line_lo ~hi:(line_lo + t.line))
      t.tracked
  with
  | None -> ()
  | Some tr ->
      let lo = max line_lo tr.base in
      let hi = min (line_lo + t.line) (tr.base + tr.size) in
      (* Capture what the line holds as the clwb retires: stores have
         already landed in the simulated memory by the time a flush can
         reference them. The debug port keeps the capture unobserved. *)
      let snap =
        Memsim.peek_bytes t.machine.Machine.mem ~addr:(Vaddr.v lo)
          ~len:(hi - lo)
      in
      let e = Events.Flush { lo; snap } in
      push t e;
      incr t.c_flushes;
      List.iter (fun tr -> Image.apply tr.state e) t.tracked

let on_fence t =
  if t.tracked <> [] then begin
    push t Events.Fence;
    incr t.c_fences;
    List.iter (fun tr -> Image.apply tr.state Events.Fence) t.tracked
  end

let apply_crash t =
  List.iter
    (fun tr ->
      Memsim.poke_image t.machine.Machine.mem ~addr:(Vaddr.v tr.base)
        (Image.image tr.state);
      Image.reset_volatile tr.state)
    t.tracked;
  Timing.invalidate_caches t.machine.Machine.timing

let attach machine =
  let line =
    1 lsl (Timing.cfg machine.Machine.timing).Timing_config.line_bits
  in
  let metrics = machine.Machine.metrics in
  let t =
    {
      machine;
      line;
      armed = false;
      tracked = [];
      buf = [||];
      len = 0;
      c_stores = Metrics.counter metrics "faultsim.events.stores";
      c_flushes = Metrics.counter metrics "faultsim.events.flushes";
      c_fences = Metrics.counter metrics "faultsim.events.fences";
    }
  in
  Memsim.add_observer machine.Machine.mem (fun ~write ~addr ~size ->
      if t.armed && write then on_store t addr size);
  Timing.set_persist_hook machine.Machine.timing
    (Some
       (function
       | Timing.Flushed addr -> if t.armed then on_flush t addr
       | Timing.Fenced -> if t.armed then on_fence t));
  machine.Machine.crash_hook <- Some (fun () -> apply_crash t);
  t

let arm t =
  let regions = Manager.open_regions t.machine.Machine.manager in
  if regions = [] then invalid_arg "Tracker.arm: no open regions";
  t.tracked <-
    List.map
      (fun r ->
        let base = (Region.base r :> int) in
        let size = Region.size r in
        let init =
          Memsim.peek_image t.machine.Machine.mem ~addr:(Region.base r) ~size
        in
        {
          rid = Region.rid r;
          base;
          size;
          init;
          state = Image.create ~base ~line:t.line ~init;
        })
      regions;
  t.len <- 0;
  t.armed <- true

let disarm t = t.armed <- false
let armed t = t.armed
let machine t = t.machine
let line_size t = t.line
let seq t = t.len
let event t i = if i < 0 || i >= t.len then invalid_arg "Tracker.event" else t.buf.(i)
let events t = Array.sub t.buf 0 t.len

let event_window t ~upto ~width =
  let lo = max 0 (upto - width) in
  let rec collect i acc =
    if i < lo then acc else collect (i - 1) ((i, t.buf.(i)) :: acc)
  in
  collect (min (t.len - 1) (upto - 1)) []

let tracked t =
  List.map (fun tr -> (tr.rid, tr.base, tr.size, tr.init)) t.tracked

let crash_image t rid =
  match List.find_opt (fun tr -> tr.rid = rid) t.tracked with
  | Some tr -> Image.image tr.state
  | None -> invalid_arg "Tracker.crash_image: region not tracked"

let durable_bytes t =
  List.fold_left (fun acc tr -> acc + Image.durable_bytes tr.state) 0 t.tracked

let volatile_bytes t =
  List.fold_left (fun acc tr -> acc + Image.volatile_bytes tr.state) 0 t.tracked

let checkpoint ?(fence = true) t =
  if not t.armed then invalid_arg "Tracker.checkpoint: not armed";
  let lines =
    List.concat_map (fun tr -> Image.pending_lines tr.state) t.tracked
  in
  List.iter
    (fun lo -> Timing.flush t.machine.Machine.timing ~addr:lo)
    (List.sort_uniq compare lines);
  if fence then Timing.fence t.machine.Machine.timing
