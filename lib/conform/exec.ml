(** Executes a conformance trace on a real {!Core.Machine.t} under one
    pointer representation, producing the same op-indexed observables as
    {!Model.run} plus a post-remap snapshot stream for the pairwise
    differential mode.

    The world is set up so that every repr-independent observable really
    is repr-independent: the anonymous target objects and the playground
    slots are allocated {e first}, at offsets that do not depend on the
    representation (slots use a fixed 16-byte stride, wide enough for
    fat pointers); only then are the structures built. Remaps go through
    {!Core.Machine.remap_region}; for the swizzle representation each
    remap is bracketed by a full unswizzle (close the window: pack every
    playground slot and every structure) and a re-swizzle after the
    move, per Section 5's load/close passes. *)

module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Machine = Core.Machine
module Region = Nvmpi_nvregion.Region
module Store = Nvmpi_nvregion.Store
module Swizzle = Core.Swizzle
module Node = Nvmpi_structures.Node
module Digest_obs = Nvmpi_structures.Digest_obs
module Metrics = Nvmpi_obs.Metrics
module Snapshot = Nvmpi_snapshot.Snapshot

let payload = 16
(** Node payload bytes; {!Model} must use the same value. *)

let buckets = 64
(** Hash-set buckets (small: collisions are the interesting case). *)

let region_size = 1 lsl 18
let obj_size = 32
let slot_stride = 16

type obs =
  | Good of Model.obs
  | Other_target of int  (** pload decoded outside the object table *)
  | Crashed of string  (** unexpected exception; trace aborted here *)
  | Skipped  (** not executed (a preceding op crashed) *)

let obs_to_string = function
  | Good o -> Model.obs_to_string o
  | Other_target a -> Printf.sprintf "other-target:0x%x" a
  | Crashed e -> "crashed: " ^ e
  | Skipped -> "skipped"

type result = {
  obs : obs array;  (** one per trace op *)
  snaps : (int * string) list;
      (** (op index, canonical world snapshot) per executed [Remap] *)
  fatal : string option;  (** world setup itself crashed *)
}

(* Uniform handle over the four structure functors under one repr. *)
type shandle = {
  s_ins : int -> bool;
  s_del : int -> bool;
  s_mem : int -> bool;
  s_dig : unit -> Digest_obs.t;
  s_swz : unit -> unit;
  s_unswz : unit -> unit;
}

let struct_name st = "c-" ^ Trace.structure_name st

(* The structure handle for one representation: apply only the
   structure functor the trace names. *)
let make_shandle (module P : Core.Repr_sig.S) node st ~create =
  let name = struct_name st in
  match (st : Trace.structure) with
  | Slist ->
      let module L = Nvmpi_structures.Linked_list.Make (P) in
      let t = if create then L.create node ~name else L.attach node ~name in
      {
        s_ins = (fun k -> L.append t ~key:k; true);
        s_del = (fun k -> L.remove t ~key:k);
        s_mem = (fun k -> L.find t ~key:k);
        s_dig = (fun () -> L.digest t);
        s_swz = (fun () -> L.swizzle t);
        s_unswz = (fun () -> L.unswizzle t);
      }
  | Sbtree ->
      let module B = Nvmpi_structures.Bstree.Make (P) in
      let t = if create then B.create node ~name else B.attach node ~name in
      {
        s_ins = (fun k -> B.insert t ~key:k);
        s_del = (fun k -> B.remove t ~key:k);
        s_mem = (fun k -> B.search t ~key:k);
        s_dig = (fun () -> B.digest t);
        s_swz = (fun () -> B.swizzle t);
        s_unswz = (fun () -> B.unswizzle t);
      }
  | Shash ->
      let module H = Nvmpi_structures.Hashset.Make (P) in
      let t =
        if create then H.create node ~name ~buckets else H.attach node ~name
      in
      {
        s_ins = (fun k -> H.add t ~key:k);
        s_del = (fun k -> H.remove t ~key:k);
        s_mem = (fun k -> H.contains t ~key:k);
        s_dig = (fun () -> H.digest t);
        s_swz = (fun () -> H.swizzle t);
        s_unswz = (fun () -> H.unswizzle t);
      }
  | Strie ->
      let module T = Nvmpi_structures.Trie.Make (P) in
      let t = if create then T.create node ~name else T.attach node ~name in
      {
        s_ins = (fun k -> T.insert t (Trace.word_of_key k));
        s_del = (fun _ -> false);
        s_mem = (fun k -> T.contains t (Trace.word_of_key k));
        s_dig = (fun () -> T.digest t);
        s_swz = (fun () -> T.swizzle t);
        s_unswz = (fun () -> T.unswizzle t);
      }

let run ?obs_metrics ?durability ?repr ~kind (tr : Trace.t) : result =
  (* [?repr] runs an arbitrary module standing in for [kind] — the
     harness self-test injects a deliberately buggy representation
     through it. *)
  let p = Option.value repr ~default:(Core.Repr.m kind) in
  let (module P : Core.Repr_sig.S) = p in
  let nops = List.length tr.ops in
  let obs = Array.make nops Skipped in
  let snaps = ref [] in
  let record_ops n =
    match obs_metrics with
    | Some m -> Metrics.incr ~by:n m "conform.ops"
    | None -> ()
  in
  try
    let store = Store.create () in
    let m = Machine.create ~seed:tr.mseed ?durability ~store () in
    let rid0 = Machine.create_region m ~size:region_size in
    let rid1 = Machine.create_region m ~size:region_size in
    let r0 = ref (Machine.open_region m rid0) in
    let r1 = ref (Machine.open_region m rid1) in
    (* Objects then slots, before anything repr-dependent: their
       region-relative offsets are the trace's object identities. *)
    let nobjs = tr.objs0 + tr.objs1 in
    let obj_off = Array.make (max 1 nobjs) 0 in
    for o = 0 to tr.objs0 - 1 do
      obj_off.(o) <- Region.offset_of_addr !r0 (Region.alloc !r0 obj_size)
    done;
    for o = tr.objs0 to nobjs - 1 do
      obj_off.(o) <- Region.offset_of_addr !r1 (Region.alloc !r1 obj_size)
    done;
    let slot_off = Array.make tr.slots 0 in
    for i = 0 to tr.slots - 1 do
      slot_off.(i) <- Region.offset_of_addr !r0 (Region.alloc !r0 slot_stride)
    done;
    (* Snapshot-bearing traces get a dirty tracker + WAL per region
       (docs/SNAPSHOT.md), created after the repr-independent offsets so
       object identities match snapshot-free traces. Epochs then cover
       everything from slot init onward; [Sync] closes them. Traces
       without [Sync] register no observer. *)
    let snapshots =
      if List.exists (function Trace.Sync -> true | _ -> false) tr.ops then
        Some
          ( Snapshot.create m !r0 ~log_cap:(64 * 1024) (),
            Snapshot.create m !r1 ~log_cap:(64 * 1024) () )
      else None
    in
    (* Pressure-relief valve: an epoch's log records must fit the WAL,
       so close the epoch early when the dirty set approaches capacity.
       Identical across representations in effect (sync has no
       observable). *)
    let relieve s =
      if
        Snapshot.pending_log_bytes s + 12288 > Snapshot.log_capacity s
      then Snapshot.sync s
    in
    let relieve_all () =
      match snapshots with
      | Some (s0, s1) ->
          relieve s0;
          relieve s1
      | None -> ()
    in
    if kind = Core.Repr.Based then Machine.set_based_region m rid0;
    let slot_addr i = Region.addr_of_offset !r0 slot_off.(i) in
    let obj_addr o =
      if o < tr.objs0 then Region.addr_of_offset !r0 obj_off.(o)
      else Region.addr_of_offset !r1 obj_off.(o)
    in
    for i = 0 to tr.slots - 1 do
      P.store m ~holder:(slot_addr i) Vaddr.null
    done;
    let fresh_node () = Node.make m ~mode:(Plain [| !r0 |]) ~payload in
    let structs = ref [] in
    let build ~create =
      let node = fresh_node () in
      structs :=
        List.map (fun st -> (st, make_shandle p node st ~create))
          tr.structures
    in
    build ~create:true;
    let shandle st = List.assoc st !structs in
    let decode a =
      if Vaddr.is_null a then Good (Model.Ptr None)
      else begin
        let found = ref (Other_target (a :> int)) in
        for o = 0 to nobjs - 1 do
          if Vaddr.equal a (obj_addr o) then found := Good (Model.Ptr (Some o))
        done;
        !found
      end
    in
    let snapshot () =
      let b = Buffer.create 64 in
      for i = 0 to tr.slots - 1 do
        Printf.bprintf b "slot%d=%s " i
          (obs_to_string (decode (P.load m ~holder:(slot_addr i))))
      done;
      List.iter
        (fun st ->
          Printf.bprintf b "%s=%s " (Trace.structure_name st)
            (Digest_obs.to_string ((shandle st).s_dig ())))
        tr.structures;
      Buffer.contents b
    in
    let do_remap idx =
      if kind = Core.Repr.Swizzle then begin
        for i = 0 to tr.slots - 1 do
          ignore (Swizzle.unswizzle_slot m ~holder:(slot_addr i))
        done;
        List.iter (fun (_, h) -> h.s_unswz ()) !structs
      end;
      let rid = if idx = 0 then rid0 else rid1 in
      let r = Machine.remap_region m rid in
      if idx = 0 then r0 := r else r1 := r;
      (* The dirty set is region-relative; only the watched base moves. *)
      (match snapshots with
      | Some (s0, s1) -> Snapshot.retarget (if idx = 0 then s0 else s1) r
      | None -> ());
      (* Region 0 moved (or might have): every host-side handle caching
         absolute addresses — structure metas, list tails — is rebuilt
         from the named roots, which is what attach is for. *)
      build ~create:false;
      if kind = Core.Repr.Swizzle then begin
        for i = 0 to tr.slots - 1 do
          ignore (Swizzle.swizzle_slot m ~holder:(slot_addr i))
        done;
        List.iter (fun (_, h) -> h.s_swz ()) !structs
      end
    in
    let exec_op i (op : Trace.op) =
      record_ops 1;
      relieve_all ();
      match op with
      | Remap idx ->
          do_remap idx;
          snaps := (i, snapshot ()) :: !snaps;
          Good Model.Done
      | Pstore (sl, None) ->
          P.store m ~holder:(slot_addr sl) Vaddr.null;
          Good Model.Done
      | Pstore (sl, Some o) ->
          P.store m ~holder:(slot_addr sl) (obj_addr o);
          Good Model.Done
      | Pload sl -> decode (P.load m ~holder:(slot_addr sl))
      | Ins (st, k) -> Good (Model.Bool ((shandle st).s_ins k))
      | Del (st, k) -> Good (Model.Bool ((shandle st).s_del k))
      | Mem (st, k) -> Good (Model.Bool ((shandle st).s_mem k))
      | Dig st ->
          let d = (shandle st).s_dig () in
          Good (Model.Digest (d.Digest_obs.nodes, d.Digest_obs.checksum))
      | Sync ->
          (match snapshots with
          | Some (s0, s1) ->
              Snapshot.sync s0;
              Snapshot.sync s1
          | None -> ());
          Good Model.Done
    in
    (* A crash (anything but the sanctioned cross-region raise) aborts
       the trace: later ops stay [Skipped] — the machine state can no
       longer be trusted to terminate walks. *)
    (try
       List.iteri
         (fun i op ->
           match
             try `Obs (exec_op i op) with
             | Machine.Cross_region_store _ -> `Obs (Good Model.Raised)
             | e -> `Crash (Printexc.to_string e)
           with
           | `Obs o -> obs.(i) <- o
           | `Crash e ->
               obs.(i) <- Crashed e;
               raise Exit)
         tr.ops
     with Exit -> ());
    { obs; snaps = List.rev !snaps; fatal = None }
  with e ->
    { obs; snaps = List.rev !snaps; fatal = Some (Printexc.to_string e) }
