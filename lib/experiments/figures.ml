module Repr = Core.Repr
module Clock = Nvmpi_cachesim.Clock
module Node = Nvmpi_structures.Node
module Wordcount = Nvmpi_apps.Wordcount
module Text_gen = Nvmpi_apps.Text_gen
module Json = Nvmpi_obs.Json

let scaled scale n = max 100 (int_of_float (float_of_int n *. scale))
let seeded seed cfg = match seed with None -> cfg | Some seed -> { cfg with Runner.seed }

let ratio m b =
  float_of_int m.Runner.measured_cycles /. float_of_int b.Runner.measured_cycles

(* Run one structure under a list of representations against a shared
   normal-pointer baseline, verifying that every representation produces
   the baseline's traversal checksum. Returns the baseline measurement
   and, per representation, the measurement paired with the baseline it
   is normalized to.

   Swizzling is measured at a single use (swizzle + 1 traversal +
   unswizzle against 1 normal traversal), matching the paper's Figure 12
   setting: "traversals ... are subject to 3-4X slowdowns with the use
   of swizzling at the loading time and unswizzling at the end"; its
   amortization over repeated traversals is Table 1's subject. *)
let slowdowns ?(swizzle_single_use = false) cfg reprs =
  let base = Runner.run { cfg with Runner.repr = Repr.Normal } in
  let swizzle_base =
    lazy
      (Runner.run { cfg with Runner.repr = Repr.Normal; traversals = 1 })
  in
  let results =
    List.map
      (fun repr ->
        if not (Runner.applicable repr ~regions:cfg.Runner.regions) then
          (repr, None)
        else if
          repr = Repr.Swizzle && swizzle_single_use && cfg.Runner.traversals > 1
        then begin
          let m =
            Runner.run { cfg with Runner.repr = repr; traversals = 1 }
          in
          (repr, Some (m, Lazy.force swizzle_base))
        end
        else begin
          let m = Runner.run { cfg with Runner.repr = repr } in
          if cfg.Runner.traversals > 0 && m.Runner.checksum <> base.Runner.checksum
          then
            failwith
              (Printf.sprintf "checksum mismatch: %s on %s"
                 (Repr.to_string repr)
                 (Instance.structure_name cfg.Runner.structure));
          (repr, Some (m, base))
        end)
      reprs
  in
  (base, results)

let value o = Option.map (fun (m, b) -> ratio m b) o

let meas_vs_paper meas paper =
  match (meas, paper) with
  | None, _ -> "-"
  | Some m, Some p -> Printf.sprintf "%.2f (%.2f)" m p
  | Some m, None -> Printf.sprintf "%.2f" m

(* The record of one [slowdowns] row (see docs/METRICS.md for the
   schema): a "normal" baseline cell, then one cell per applicable
   representation. *)
let sweep_record ~row (base, results) =
  let cell ?fields label (m : Runner.measurement) =
    Table.cell ?fields ~label ~cycles:m.Runner.measured_cycles m.Runner.counters
  in
  Table.record ~row
    (cell "normal" base
    :: List.filter_map
         (fun (repr, o) ->
           Option.map
             (fun (m, b) ->
               cell
                 ~fields:
                   [ ("baseline_cycles", Json.Int b.Runner.measured_cycles);
                     ("slowdown", Json.Float (ratio m b)) ]
                 (Repr.to_string repr) m)
             o)
         results)

type row = {
  label : string;
  record : string;
  config : Runner.config;
  paper : Repr.kind -> float option;
}

let row ?record ?(paper = fun _ -> None) label config =
  { label; record = Option.value record ~default:label; config; paper }

let slowdown_table ?swizzle_single_use ~title ~header ~notes reprs rows =
  let rows, records =
    List.split
      (List.map
         (fun row ->
           let (_, results) as run =
             slowdowns ?swizzle_single_use row.config reprs
           in
           ( row.label
             :: List.map
                  (fun (repr, o) -> meas_vs_paper (value o) (row.paper repr))
                  results,
             sweep_record ~row:row.record run ))
         rows)
  in
  { Table.title; header; rows; notes; records }

(* Figure 12 ------------------------------------------------------- *)

let fig12_reprs = [ Repr.Swizzle; Repr.Fat; Repr.Riv; Repr.Off_holder; Repr.Based ]

(* Paper values: per-structure swizzling numbers from Table 1; the other
   methods are the averages quoted in Section 6.2. *)
let fig12_paper structure repr =
  match (repr, structure) with
  | Repr.Swizzle, Instance.List -> Some 3.76
  | Repr.Swizzle, Instance.Btree -> Some 3.85
  | Repr.Swizzle, Instance.Hashset -> Some 3.07
  | Repr.Swizzle, Instance.Trie -> Some 3.67
  | Repr.Fat, _ -> Some 3.6
  | Repr.Riv, _ -> Some 1.24
  | Repr.Off_holder, _ -> Some 1.13
  | Repr.Based, _ -> Some 1.03
  | _ -> None

let fig12 ?(scale = 1.0) ?seed () =
  let elems = scaled scale 10_000 in
  let cfg = seeded seed { Runner.default with Runner.elems; traversals = 10 } in
  slowdown_table ~swizzle_single_use:true
    ~title:
      "Figure 12: slowdown vs normal pointers (non-transactional, 1 \
       NVRegion, 32 B payload)"
    ~header:("structure" :: List.map Repr.to_string fig12_reprs)
    ~notes:
      [
        "cells are measured (paper); paper per-structure values only \
         published for swizzling";
        Printf.sprintf "traversal workload, 10 repetitions, %d elements" elems;
      ]
    fig12_reprs
    (List.map
       (fun structure ->
         row ~paper:(fig12_paper structure)
           (Instance.structure_name structure)
           { cfg with Runner.structure })
       Instance.structures)

(* Payload sweep ---------------------------------------------------- *)

let payload_paper payload repr =
  match (payload, repr) with
  | 32, r -> fig12_paper Instance.List r
  | 256, Repr.Riv -> Some 1.15
  | 256, Repr.Off_holder -> Some 1.07
  | 256, Repr.Based -> Some 1.01
  | 256, Repr.Fat -> Some 3.0
  | 256, Repr.Swizzle -> Some 3.0
  | _ -> None

let payload_sweep ?(scale = 1.0) ?seed () =
  let payloads = [ 32; 256 ] in
  let rows, records =
    List.split
      (List.map
         (fun payload ->
           let cfg =
             seeded seed
               {
                 Runner.default with
                 Runner.elems = scaled scale 10_000;
                 traversals = 10;
                 payload;
               }
           in
           let runs =
             List.map
               (fun structure ->
                 ( structure,
                   slowdowns ~swizzle_single_use:true
                     { cfg with Runner.structure } fig12_reprs ))
               Instance.structures
           in
           (* Average across the four structures, as the paper reports. *)
           let avg repr =
             let vs =
               List.filter_map
                 (fun (_, (_, results)) -> value (List.assoc repr results))
                 runs
             in
             match vs with
             | [] -> None
             | _ ->
                 Some
                   (List.fold_left ( +. ) 0.0 vs
                   /. float_of_int (List.length vs))
           in
           ( string_of_int payload
             :: List.map
                  (fun repr ->
                    meas_vs_paper (avg repr) (payload_paper payload repr))
                  fig12_reprs,
             List.map
               (fun (structure, run) ->
                 sweep_record
                   ~row:
                     (Printf.sprintf "payload %d %s" payload
                        (Instance.structure_name structure))
                   run)
               runs ))
         payloads)
  in
  {
    Table.title = "Section 6.2: average slowdown vs payload size";
    header = "payload" :: List.map Repr.to_string fig12_reprs;
    rows;
    notes =
      [ "averages over list/btree/hashset/trie; cells are measured (paper)";
        "records carry the per-structure runs the averages are taken over" ];
    records = List.concat records;
  }

(* Table 1 ----------------------------------------------------------- *)

let table1_paper =
  [
    (Instance.List, [ 3.76; 1.29; 1.05 ]);
    (Instance.Btree, [ 3.85; 1.34; 1.06 ]);
    (Instance.Hashset, [ 3.07; 1.20; 1.01 ]);
    (Instance.Trie, [ 3.67; 1.30; 1.04 ]);
  ]

let table1 ?(scale = 1.0) ?seed () =
  let traversal_counts = [ 1; 10; 100 ] in
  let rows, records =
    List.split
      (List.map
         (fun structure ->
           let paper = List.assoc structure table1_paper in
           let name = Instance.structure_name structure in
           let cells, records =
             List.split
               (List.map2
                  (fun traversals paper ->
                    let cfg =
                      seeded seed
                        {
                          Runner.default with
                          Runner.structure;
                          elems = scaled scale 10_000;
                          traversals;
                        }
                    in
                    let (_, results) as run = slowdowns cfg [ Repr.Swizzle ] in
                    match results with
                    | [ (_, o) ] ->
                        ( meas_vs_paper (value o) (Some paper),
                          sweep_record
                            ~row:(Printf.sprintf "%s x%d" name traversals)
                            run )
                    | _ -> assert false)
                  traversal_counts paper)
           in
           (name :: cells, records))
         Instance.structures)
  in
  {
    Table.title = "Table 1: pointer-swizzling overhead vs number of traversals";
    header =
      "structure"
      :: List.map (fun k -> Printf.sprintf "x%d" k) traversal_counts;
    rows;
    notes =
      [
        "swizzle + k traversals + unswizzle, normalized to k normal \
         traversals; measured (paper)";
      ];
    records = List.concat records;
  }

(* Figures 13 and 14 ------------------------------------------------- *)

(* Swizzling is omitted as in the paper's Figures 13/14 ("as swizzling
   shows large slowdowns as in the non-transactional cases, for
   legibility, we omit its bars"). *)
let tx_reprs =
  [ Repr.Fat; Repr.Fat_cached; Repr.Riv; Repr.Off_holder; Repr.Based ]

let fig13_paper repr =
  match repr with
  | Repr.Fat -> Some 3.0
  | Repr.Fat_cached -> Some 1.11
  | Repr.Riv -> Some 1.15
  | Repr.Off_holder -> Some 1.13
  | Repr.Based -> Some 1.06
  | _ -> None

let fig14_paper repr =
  match repr with
  | Repr.Fat -> Some 2.65
  | Repr.Fat_cached -> Some 2.2
  | Repr.Riv -> Some 1.4
  | _ -> None

let tx_figure ~title ~regions ~paper ~scale ~seed ~notes =
  let cfg =
    seeded seed
      {
        Runner.default with
        Runner.elems = scaled scale 10_000;
        regions;
        mode = Runner.Tx;
      }
  in
  let workloads =
    [ ("traverse", 10, 0); ("search", 0, scaled scale 10_000) ]
  in
  slowdown_table ~title
    ~header:("workload" :: List.map Repr.to_string tx_reprs)
    ~notes tx_reprs
    (List.concat_map
       (fun structure ->
         List.map
           (fun (wname, traversals, searches) ->
             row ~paper
               (Instance.structure_name structure ^ " " ^ wname)
               { cfg with Runner.structure; traversals; searches })
           workloads)
       Instance.structures)

let fig13 ?(scale = 1.0) ?seed () =
  tx_figure
    ~title:
      "Figure 13: slowdown vs normal pointers (transactional object store, \
       1 NVRegion)"
    ~regions:1 ~paper:fig13_paper ~scale ~seed
    ~notes:
      [
        "PMEM.IO-like store: 128 B wrapped objects, read-accessor \
         bookkeeping; paper averages in parens";
      ]

let fig14 ?(scale = 1.0) ?seed () =
  tx_figure
    ~title:
      "Figure 14: slowdown vs normal pointers (transactional, 10 NVRegions, \
       round-robin)"
    ~regions:10 ~paper:fig14_paper ~scale ~seed
    ~notes:
      [
        "off-holder and based pointers are intra-region only: not \
         applicable (-)";
        "the fat-pointer cache is defeated because consecutive accesses \
         alternate regions";
      ]

(* Region-count sweep ------------------------------------------------ *)

let regions_paper regions repr =
  match (regions, repr) with
  | 1, r -> fig13_paper r
  | _, Repr.Fat -> Some 2.65
  | _, Repr.Fat_cached -> Some 2.3
  | _, Repr.Riv -> Some 1.4
  | _ -> None

let regions_sweep ?(scale = 1.0) ?seed () =
  let reprs = [ Repr.Fat; Repr.Fat_cached; Repr.Riv ] in
  let cfg =
    seeded seed
      {
        Runner.default with
        Runner.elems = scaled scale 10_000;
        mode = Runner.Tx;
        traversals = 10;
      }
  in
  slowdown_table
    ~title:
      "Section 6.3: slowdown vs number of NVRegions (transactional list \
       traversal)"
    ~header:("regions" :: List.map Repr.to_string reprs)
    ~notes:
      [
        "paper: cached fat 2.1-2.5x and uncached 2.3-3x for 2-10 regions; \
         RIV much lower";
      ]
    reprs
    (List.map
       (fun regions ->
         row
           ~record:(string_of_int regions ^ " regions")
           ~paper:(regions_paper regions) (string_of_int regions)
           { cfg with Runner.regions })
       [ 1; 2; 4; 8; 10 ])

(* Figure 15: wordcount ---------------------------------------------- *)

let fig15_reprs =
  [ Repr.Normal; Repr.Fat; Repr.Fat_cached; Repr.Riv; Repr.Off_holder;
    Repr.Based ]

(* Paper Figure 15 reports absolute times; the reproducible shape is the
   ratio to the fat-pointer version. *)
let fig15_paper_vs_fat = function
  | Repr.Off_holder -> Some 0.5
  | Repr.Based -> Some 0.5
  | Repr.Riv -> Some 0.67
  | _ -> None

(* One wordcount execution: its cost in simulated cycles and the metric
   deltas over the counting phase. *)
let wordcount_run ?(seed = 7) ~nwords ~vocab repr =
  let slot = Repr.slot_size repr in
  let size = (vocab * ((2 * slot) + 8 + 32 + 64) * 2) + (1 lsl 20) in
  let machine, region = Runner.boot ~seed ~size repr in
  let node = Node.make machine ~mode:(Node.Plain [| region |]) ~payload:32 in
  let stream = Text_gen.words ~n:nwords ~vocab ~seed:11 in
  let _, cycles, counters =
    Runner.measure machine (fun () ->
        Wordcount.count_words node ~repr ~name:"wordcount" stream)
  in
  (repr, cycles, counters)

let fig15 ?(scale = 1.0) ?seed ?(full = false) () =
  let sizes =
    if full then [ 1_000_000; 2_000_000 ]
    else [ scaled scale 200_000; scaled scale 400_000 ]
  in
  let vocab = 20_000 in
  let rows, records =
    List.split
      (List.map
         (fun nwords ->
           let results =
             List.map (wordcount_run ?seed ~nwords ~vocab) fig15_reprs
           in
           let _, fat_cycles, _ =
             List.find (fun (r, _, _) -> r = Repr.Fat) results
           in
           let vs_fat cycles = float_of_int cycles /. float_of_int fat_cycles in
           let row_name = Printf.sprintf "%d words" nwords in
           ( row_name
             :: List.map
                  (fun (repr, cycles, _) ->
                    let secs = Clock.seconds_of_cycles cycles in
                    match fig15_paper_vs_fat repr with
                    | Some p ->
                        Printf.sprintf "%.3fs %.2fxFat (%.2f)" secs
                          (vs_fat cycles) p
                    | None -> Printf.sprintf "%.3fs %.2fxFat" secs (vs_fat cycles))
                  results,
             Table.record ~row:row_name
               (List.map
                  (fun (repr, cycles, counters) ->
                    Table.cell ~label:(Repr.to_string repr) ~cycles
                      ~fields:
                        [
                          ("seconds", Json.Float (Clock.seconds_of_cycles cycles));
                          ("vs_fat", Json.Float (vs_fat cycles));
                        ]
                      counters)
                  results) ))
         sizes)
  in
  {
    Table.title = "Figure 15: wordcount execution time (BST on one NVRegion)";
    header = "input" :: List.map Repr.to_string fig15_reprs;
    rows;
    notes =
      [
        "seconds are simulated cycles at 2.6 GHz; parenthesized values are \
         the paper's time ratio to the fat-pointer version";
        "paper uses 1M/2M-word English inputs; default here is a scaled \
         Zipf corpus (use the full flag for 1M/2M)";
      ];
    records;
  }

(* RIV read-cost breakdown ------------------------------------------- *)

let breakdown ?(scale = 1.0) ?seed () =
  let cfg =
    seeded seed
      {
        Runner.default with
        Runner.repr = Repr.Riv;
        elems = scaled scale 10_000;
        traversals = 10;
      }
  in
  let m = Runner.run cfg in
  let p = Core.Nvspace.phases m.Runner.machine.Core.Machine.nvspace in
  let total =
    p.Core.Nvspace.extract_cycles + p.Core.Nvspace.id2addr_cycles
    + p.Core.Nvspace.final_cycles
  in
  let pct v = 100.0 *. float_of_int v /. float_of_int (max 1 total) in
  let phase_cell label cycles =
    Json.Obj [ ("label", Json.String label); ("cycles", Json.Int cycles) ]
  in
  {
    Table.title = "Section 6.2: RIV read-overhead breakdown";
    header = [ "phase"; "measured"; "paper" ];
    rows =
      [
        [ "(1) extract ID and offset fields";
          Printf.sprintf "%.0f%%" (pct p.Core.Nvspace.extract_cycles); "32%" ];
        [ "(2) compute base address from ID";
          Printf.sprintf "%.0f%%" (pct p.Core.Nvspace.id2addr_cycles); "23%" ];
        [ "(3) read base, add offset";
          Printf.sprintf "%.0f%%" (pct p.Core.Nvspace.final_cycles); "48%" ];
      ];
    notes = [ "shares of the cycles spent inside RIV-to-pointer conversion" ];
    records =
      [
        Table.record ~row:"riv traversal"
          [
            Table.cell ~label:"riv" ~cycles:m.Runner.measured_cycles
              m.Runner.counters;
            phase_cell "phase: extract" p.Core.Nvspace.extract_cycles;
            phase_cell "phase: id2addr" p.Core.Nvspace.id2addr_cycles;
            phase_cell "phase: final" p.Core.Nvspace.final_cycles;
          ];
      ];
  }
