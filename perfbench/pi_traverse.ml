(* pi-traverse: read-only pointer chasing, the paper's Section 6.3
   workload. One machine holds the paper's four structures under each
   of its seven representations, each populated with the same keys;
   cross-region representations also get a region-striped instance. A
   timed op is one full traversal or one search of one instance. *)

module Machine = Core.Machine
module Repr = Core.Repr
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Node = Nvmpi_structures.Node
module Instance = Nvmpi_experiments.Instance
module Workload = Nvmpi_experiments.Workload
module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json

type sizes = {
  elems : int;  (** keys per instance *)
  stripes : int;  (** regions of a striped instance *)
}

let default_sizes = { elems = 500; stripes = 4 }
let payload = 32

(* Each round times three traversals and one search of every instance.
   A traversal's cycles barely depend on the keys, a search's depend on
   where its key sits; with traversals the majority, the median op is a
   traversal and holds still across seeds (at one to one it falls on
   the boundary between the two clusters and moves with the seed). *)
let traversals_per_search = 3

let s_create = Trace.name "core.machine_create"
let s_insert = Trace.name "structures.insert"
let s_traverse = Trace.name "structures.traverse"
let s_search = Trace.name "structures.search"
let s_swizzle = Trace.name "core.swizzle"
let s_unswizzle = Trace.name "core.unswizzle"

type inst = {
  repr_idx : int;
  repr : Repr.kind;
  structure : Instance.structure;
  home : Nvmpi_addr.Kinds.Rid.t;
  h : Instance.t;
}

(* Region bytes for [elems] keys spread over [regions], with the slack
   the experiment runner uses. Tries expand a key to up to 8 nodes. *)
let region_size repr structure ~elems ~regions =
  let slot = Repr.slot_size repr in
  let node, nodes =
    match structure with
    | Instance.Btree -> ((2 * slot) + 8 + payload, 1)
    | Instance.Trie -> ((26 * slot) + 8 + payload, 8)
    | _ -> (slot + 8 + payload, 1)
  in
  let bytes = (node + 8) * nodes * elems / regions in
  let size = (bytes * 3 / 2) + 65536 + (Instance.default_buckets * 16) in
  (size + 4095) land lnot 4095

let build sizes ~seed =
  let keys = Workload.keys ~n:sizes.elems ~seed in
  let machine =
    Trace.span s_create (fun () ->
        Machine.create ~seed:(seed * 7919) ~store:(Store.create ()) ())
  in
  let insts =
    List.concat
      (List.mapi
         (fun repr_idx repr ->
           let layouts = if Repr.cross_region repr then [ 1; sizes.stripes ] else [ 1 ] in
           List.concat_map
             (fun structure ->
               List.map
                 (fun regions ->
                   let size = region_size repr structure ~elems:sizes.elems ~regions in
                   let rs =
                     Array.init regions (fun _ ->
                         Machine.open_region machine
                           (Machine.create_region machine ~size))
                   in
                   let home = Region.rid rs.(0) in
                   if repr = Repr.Based then Machine.set_based_region machine home;
                   let node = Node.make machine ~mode:(Node.Plain rs) ~payload in
                   let h = Instance.create structure repr node ~name:"perfbench" in
                   Array.iter (fun k -> Trace.span s_insert (fun () -> h.Instance.insert k)) keys;
                   (* Stored in packed form, as a closed swizzle structure
                      would be; each round swizzles and unswizzles it. *)
                   if repr = Repr.Swizzle then h.Instance.unswizzle ();
                   { repr_idx; repr; structure; home; h })
                 layouts)
             Instance.structures)
         Spec.reprs)
  in
  (keys, machine, Array.of_list insts)

let setup sizes ~seed : Harness.instance =
  let keys, machine, insts = build sizes ~seed in
  (* Reference traversal per structure, from its first (normal,
     single-region) instance: every other representation must agree. *)
  let reference =
    List.map
      (fun s ->
        let i = Array.to_list insts |> List.find (fun i -> i.structure = s) in
        (s, i.h.Instance.traverse ()))
      Instance.structures
  in
  (* Ops come in rounds: each round is a fresh seeded permutation of
     every instance's ops, so every run covers every instance and op
     kind in the same proportions. As [Runner.run] brackets its batch,
     a round swizzles a swizzle instance before its first op and
     unswizzles it after its last; each pass is charged to that op. *)
  let st = Random.State.make [| seed; 0x7E1 |] in
  let per = 1 + traversals_per_search in
  let slots = Array.init (per * Array.length insts) Fun.id in
  let left = Array.make (Array.length insts) 0 in
  let round = ref [||] and pos = ref 0 and rounds = ref 0 in
  let op _ =
    if !pos = Array.length !round then begin
      round := Workload.shuffle slots ~seed:((seed * 7919) + !rounds);
      Array.fill left 0 (Array.length left) per;
      incr rounds;
      pos := 0
    end;
    let k = !round.(!pos) / per in
    let inst = insts.(k) in
    let search = !round.(!pos) mod per = 0 in
    incr pos;
    let swizzle = inst.repr = Repr.Swizzle in
    let first = left.(k) = per and last = left.(k) = 1 in
    left.(k) <- left.(k) - 1;
    let key = keys.(Random.State.int st (Array.length keys)) in
    let c0 = Machine.cycles machine in
    let ok =
      try
        if inst.repr = Repr.Based then Machine.set_based_region machine inst.home;
        if swizzle && first then Trace.span s_swizzle inst.h.Instance.swizzle;
        let ok =
          if search then Trace.span s_search (fun () -> inst.h.Instance.search key)
          else
            Trace.span s_traverse inst.h.Instance.traverse
            = List.assoc inst.structure reference
        in
        if swizzle && last then Trace.span s_unswizzle inst.h.Instance.unswizzle;
        ok
      with e ->
        prerr_endline ("pi-traverse: " ^ Printexc.to_string e);
        false
    in
    { Harness.cycles = Machine.cycles machine - c0; ok; cls = inst.repr_idx; aux = 0 }
  in
  let per_layer (w : Harness.window) ~rows ~op_ns =
    List.concat
      (List.mapi
         (fun ri r -> Harness.per_class w ~op_ns ~name:(Repr.to_string r) (( = ) ri))
         Spec.reprs)
    @ [
        ("structures.insert_us", Harness.span_p50_us ~phase:Trace.Setup rows "structures.insert");
        ("structures.traverse_us", Harness.span_p50_us rows "structures.traverse");
        ("structures.search_us", Harness.span_p50_us rows "structures.search");
      ]
  in
  {
    Harness.op;
    counters = (fun () -> Metrics.snapshot (Machine.metrics machine));
    context =
      (fun () ->
      [
        ("instances", Json.Int (Array.length insts));
        ("elems", Json.Int sizes.elems);
        ("stripes", Json.Int sizes.stripes);
      ]);
    per_layer;
  }

let workload ?(sizes = default_sizes) () =
  {
    Harness.name = "pi-traverse";
    ops_per_second = 420.0;
    setups = 5;
    epochs = 5;
    block_ops = 192;
    setup = setup sizes;
  }
