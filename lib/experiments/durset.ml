module Machine = Core.Machine
module Repr = Core.Repr
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json
module Store = Nvmpi_nvregion.Store
module Layout = Nvmpi_addr.Layout
module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Node = Nvmpi_structures.Node
module Durable = Nvmpi_structures.Durable
module Durability = Core.Durability
module Zipf = Nvmpi_server.Zipf

(* Flush-minimization measurement for the durable sets (docs/DURABLE.md):
   the same read-mostly zipfian workload on hashset and bstree, run
   twice per representation —

   - [eager]: the Izraelevitz-style eager-durability baseline. The
     structure code itself issues no persistence actions (the legacy
     discipline), so the baseline is emulated at the op boundary: a
     Memsim observer records every NVM cache line the op touches, and
     after the op each line is flushed once and a single fence issued —
     exactly the clwb-everything-you-touched cost the motivation cites.
   - [traverse]: the link-and-persist discipline. Traversals flush
     nothing; each mutating op pays one modification window (fresh-node
     lines + one marked link flush + fence).

   Both phases replay an identical op stream (same seed, same draws), so
   the flush-count and simulated-cycle columns are directly comparable.
   Like churn, this experiment is additive: it has its own committed
   baseline (BENCH_durable.json) and never appears in BENCH_seed.json. *)

let keys = 96
let theta = 0.9
let read_pct = 95
let line_bytes = 64

let structures = [ Instance.Hashset; Instance.Btree ]

let counter_cols = [ "timing.flushes"; "timing.fences" ]

let scaled scale n = max 300 (int_of_float (float_of_int n *. scale))

let run_one ~ops ~seed structure repr ~durability =
  let store = Store.create () in
  let machine = Machine.create ~seed ~durability ~store () in
  let rid = Machine.create_region machine ~size:(1 lsl 21) in
  let region = Machine.open_region machine rid in
  if repr = Repr.Based then Machine.set_based_region machine rid;
  let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload:32 in
  let inst = Instance.create structure repr node ~name:"durset" in
  let eager = durability = Durability.Eager in
  (* Eager-baseline plumbing: record each op's touched NVM lines in
     first-touch order (deterministic), then flush them + fence at the
     op boundary. The observer is attached before the preload so both
     phases run the measured ops on the generic (observed) access path —
     the cycle columns differ only by the persistence actions. *)
  let lines = ref [] in
  let seen = Hashtbl.create 64 in
  let recording = ref false in
  let layout = machine.Machine.layout in
  if eager then
    Memsim.add_observer machine.Machine.mem (fun ~write:_ ~addr ~size:_ ->
        if !recording && Layout.in_nv_space layout addr then begin
          let l = addr land lnot (line_bytes - 1) in
          if not (Hashtbl.mem seen l) then begin
            Hashtbl.add seen l ();
            lines := l :: !lines
          end
        end);
  let flush_touched () =
    List.iter
      (fun l -> Timing.flush machine.Machine.timing ~addr:l)
      (List.rev !lines);
    Timing.fence machine.Machine.timing;
    lines := [];
    Hashtbl.reset seen
  in
  for k = 1 to keys do
    inst.Instance.insert k
  done;
  let rng = Random.State.make [| seed; 0xD5E7 |] in
  let z = Zipf.v ~n:keys ~theta in
  let metrics = Machine.metrics machine in
  let before = Metrics.snapshot metrics in
  let c0 = Machine.cycles machine in
  recording := true;
  for op = 1 to ops do
    let key = 1 + Zipf.next z rng in
    let r = Random.State.int rng 100 in
    if r < read_pct then ignore (inst.Instance.search key)
    else if r mod 2 = 0 then inst.Instance.insert (keys + op)
    else ignore (inst.Instance.remove key);
    if eager then flush_touched ()
  done;
  recording := false;
  let cycles = Machine.cycles machine - c0 in
  let counters = Metrics.diff ~before ~after:(Metrics.snapshot metrics) in
  (cycles, counters)

let counter name counters =
  Option.value ~default:0 (List.assoc_opt name counters)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

type pair = {
  eager_cycles : int;
  traverse_cycles : int;
  eager_counters : (string * int) list;
  traverse_counters : (string * int) list;
}

let run_pair ~ops ~seed structure repr =
  let eager_cycles, eager_counters =
    run_one ~ops ~seed structure repr ~durability:Durability.Eager
  in
  let traverse_cycles, traverse_counters =
    run_one ~ops ~seed structure repr ~durability:Durability.Traverse
  in
  { eager_cycles; traverse_cycles; eager_counters; traverse_counters }

let table ?(scale = 1.0) ?seed () =
  let seed = Option.value seed ~default:11 in
  let ops = scaled scale 3000 in
  let rows, records =
    List.split
      (List.concat_map
         (fun structure ->
           List.map
             (fun repr ->
               let p = run_pair ~ops ~seed structure repr in
               let name =
                 Printf.sprintf "%s/%s"
                   (Instance.structure_name structure)
                   (Repr.to_string repr)
               in
               let ef = counter "timing.flushes" p.eager_counters in
               let tf = counter "timing.flushes" p.traverse_counters in
               let cell label cycles counters =
                 Json.Obj
                   [
                     ("label", Json.String label);
                     ("cycles", Json.Int cycles);
                     ("counters", Metrics.json_of_counters counters);
                   ]
               in
               ( [
                   name;
                   string_of_int p.eager_cycles;
                   string_of_int p.traverse_cycles;
                   string_of_int ef;
                   string_of_int tf;
                   Printf.sprintf "%.1fx" (ratio ef tf);
                   Printf.sprintf "%.2fx"
                     (ratio p.eager_cycles p.traverse_cycles);
                 ],
                 Json.Obj
                   [
                     ("row", Json.String name);
                     ( "cells",
                       Json.List
                         [
                           cell "eager" p.eager_cycles p.eager_counters;
                           cell "traverse" p.traverse_cycles
                             p.traverse_counters;
                         ] );
                   ] ))
             Durable.reprs)
         structures)
  in
  {
    Table.title =
      "Durable sets: eager whole-path flushing vs link-and-persist \
       traversal-free persistence";
    header =
      [
        "structure/repr";
        "eager cycles";
        "traverse cycles";
        "eager flushes";
        "traverse flushes";
        "flush reduction";
        "cycle reduction";
      ];
    rows;
    notes =
      [
        Printf.sprintf
          "%d ops over %d keys (theta %g), %d%% reads; eager = clwb every \
           touched NVM line + fence per op, traverse = modification-window \
           flushes only (dur.* counters in the traverse cells)"
          ops keys theta read_pct;
      ];
    records;
  }
