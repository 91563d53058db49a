module Repr = Core.Repr
module Timing_config = Nvmpi_cachesim.Timing_config

let scaled scale n = max 100 (int_of_float (float_of_int n *. scale))
let seeded seed cfg = match seed with None -> cfg | Some seed -> { cfg with Runner.seed }

let translation ?(scale = 1.0) ?seed () =
  let cfg =
    seeded seed
      { Runner.default with Runner.elems = scaled scale 10_000; traversals = 10 }
  in
  Figures.slowdown_table
    ~title:
      "Ablation: translation mechanism (same packed format, different \
       ID-to-base translation)"
    ~header:[ "structure"; "hw-oid (hypothetical)"; "riv (direct-mapped)";
              "packed-fat (hashtable)"; "fat (2-word + hashtable)" ]
    ~notes:
      [
        "riv vs packed-fat isolates the direct-mapped tables; packed-fat \
         vs fat isolates the slot size";
        "hw-oid models hardware-assisted translation (Wang et al. 2017) at \
         a fixed 2-cycle table hit: the headroom left above RIV";
      ]
    [ Repr.Hw_oid; Repr.Riv; Repr.Packed_fat; Repr.Fat ]
    (List.map
       (fun structure ->
         Figures.row (Instance.structure_name structure)
           { cfg with Runner.structure })
       Instance.structures)

let latency_sweep ?(scale = 1.0) ?seed () =
  (* Cold caches + a single traversal: every node load actually reaches
     the emulated NVM. *)
  let cfg =
    seeded seed
      {
        Runner.default with
        Runner.elems = scaled scale 10_000;
        traversals = 1;
        cold = true;
      }
  in
  Figures.slowdown_table
    ~title:"Ablation: sensitivity to emulated NVM read latency (cycles)"
    ~header:[ "nvm read lat"; "off-holder"; "riv"; "fat" ]
    ~notes:
      [
        "cold-cache single traversal; NVM write latency follows at 2x the \
         read latency";
        "higher NVM latency shrinks every method's relative overhead, as \
         misses dominate";
      ]
    [ Repr.Off_holder; Repr.Riv; Repr.Fat ]
    (List.map
       (fun nvm_read ->
         Figures.row
           ~record:(Printf.sprintf "nvm_read %d" nvm_read)
           (string_of_int nvm_read)
           {
             cfg with
             Runner.timing =
               { Timing_config.default with Timing_config.nvm_read;
                 nvm_write = 2 * nvm_read };
           })
       [ 150; 300; 600; 1200 ])

let cache_pressure ?(scale = 1.0) ?seed () =
  let cfg = seeded seed { Runner.default with Runner.traversals = 10 } in
  Figures.slowdown_table
    ~title:
      "Ablation: working-set size (fat pointers double slot bytes, \
       spilling caches earlier)"
    ~header:[ "elements"; "off-holder"; "riv"; "fat" ]
    ~notes:[ "list traversal, 32 B payload, single region" ]
    [ Repr.Off_holder; Repr.Riv; Repr.Fat ]
    (List.map
       (fun n ->
         let elems = scaled scale n in
         Figures.row
           ~record:(string_of_int elems ^ " elements")
           (string_of_int elems)
           { cfg with Runner.elems })
       [ 1_000; 10_000; 50_000 ])

(* Where the cycles go: per-representation memory-system behaviour for
   one traversal workload. *)
let cache_stats ?(scale = 1.0) ?seed () =
  let reprs =
    [ Repr.Normal; Repr.Based; Repr.Off_holder; Repr.Riv; Repr.Fat ]
  in
  let rows, records =
    List.split
      (List.map
         (fun repr ->
           let cfg =
             seeded seed
               {
                 Runner.default with
                 Runner.repr;
                 elems = scaled scale 10_000;
                 traversals = 10;
               }
           in
           let m = Runner.run cfg in
           let counter name = Table.count name m.Runner.counters in
           let rate level =
             let hits = counter ("cache." ^ level ^ ".hits") in
             let total = hits + counter ("cache." ^ level ^ ".misses") in
             if total = 0 then "-"
             else
               Printf.sprintf "%.1f%%"
                 (100.0 *. float_of_int hits /. float_of_int total)
           in
           let name = Repr.to_string repr in
           ( [
               name;
               rate "l1";
               rate "l2";
               rate "l3";
               string_of_int (counter "mem.nvm_reads");
               string_of_int (counter "timing.alu_cycles");
               Printf.sprintf "%.0f" m.Runner.per_op;
             ],
             Table.record ~row:name
               [
                 Table.cell ~label:name ~cycles:m.Runner.measured_cycles
                   m.Runner.counters;
               ] ))
         reprs)
  in
  {
    Table.title = "Ablation: memory-system behaviour per representation \
                   (list traversal, measured phase only)";
    header =
      [ "repr"; "L1 hit"; "L2 hit"; "L3 hit"; "nvm reads"; "alu cycles";
        "cycles/traversal" ];
    rows;
    notes =
      [
        "fat pointers double slot bytes and add hashtable work: visible as \
         extra ALU cycles and lower hit rates";
      ];
    records;
  }

(* The Figure 12 experiment repeated on the structures this library adds
   beyond the paper's four. *)
let extension_structures ?(scale = 1.0) ?seed () =
  let reprs = [ Repr.Swizzle; Repr.Fat; Repr.Riv; Repr.Off_holder; Repr.Based ] in
  let cfg = seeded seed { Runner.default with Runner.traversals = 10 } in
  Figures.slowdown_table ~swizzle_single_use:true
    ~title:
      "Extension structures: slowdown vs normal pointers (same setting as \
       Figure 12)"
    ~header:("structure" :: List.map Repr.to_string reprs)
    ~notes:
      [
        "doubly linked list, directed graph (vertex chain) and B+ tree; \
         not part of the paper's evaluation";
      ]
    reprs
    (List.map
       (fun structure ->
         (* Vertex insertion scans the vertex registry, so graph
            population is quadratic in element count; 2000 vertices keep
            the populate phase tractable without changing the measured
            traversal shape. *)
         let elems =
           match structure with
           | Instance.Graph -> scaled scale 2_000
           | _ -> scaled scale 10_000
         in
         Figures.row (Instance.structure_name structure)
           { cfg with Runner.structure; elems })
       Instance.extension_structures)

let all ?(scale = 1.0) ?seed () =
  [ translation ~scale ?seed (); latency_sweep ~scale ?seed ();
    cache_pressure ~scale ?seed (); cache_stats ~scale ?seed ();
    extension_structures ~scale ?seed () ]
