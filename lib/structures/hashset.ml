module Memsim = Nvmpi_memsim.Memsim
module Swizzle = Core.Swizzle
module Machine = Core.Machine
module Vaddr = Nvmpi_addr.Kinds.Vaddr

let kind_tag = 0x13

module Make (P : Core.Repr_sig.S) = struct
  type t = { node : Node.t; meta : Vaddr.t; buckets : int }

  let slot = P.slot_size
  let key_off = slot
  let payload_off = slot + 8
  let node_size t = payload_off + t.node.Node.payload
  let m t = t.node.Node.machine
  let table_holder t = Vaddr.add t.meta Node.head_slot_off

  let hash_key t ~key =
    Machine.alu (m t) 4;
    let h = key * 0x2545F4914F6CDD1 in
    (h lxor (h lsr 31)) land max_int mod t.buckets

  let bucket_holder table i = Vaddr.add table (i * slot)

  (* Link-and-persist discipline (docs/DURABLE.md): chain links — bucket
     slots and node next-slots — go through [load_link]/[store_link].
     Under [Traverse] (and an 8-byte slot encoding) stores are
     published with a marked flush+fence window and loads repair marked
     links; under [Eager] both are exactly the legacy plain accesses. *)
  let durable t =
    match t.node.Node.durability with
    | Core.Durability.Traverse -> Durable.applicable ~slot_size:P.slot_size
    | Eager | Snapshot _ -> false

  let load_link t ~holder =
    if durable t then Durable.check_mark (m t) ~holder;
    P.load (m t) ~holder

  let store_link t ~holder target =
    P.store (m t) ~holder target;
    if durable t then Durable.persist_link (m t) ~holder

  let create node ~name ~buckets =
    if buckets <= 0 then invalid_arg "Hashset.create: buckets";
    let meta = Node.write_meta node ~name ~kind:kind_tag ~aux:buckets in
    let table = Node.alloc_in_home node (buckets * slot) in
    let t = { node; meta; buckets } in
    for i = 0 to buckets - 1 do
      P.store (m t) ~holder:(bucket_holder table i) Vaddr.null
    done;
    P.store (m t) ~holder:(table_holder t) table;
    t

  let attach node ~name =
    let meta, payload, buckets =
      Node.find_meta node.Node.machine (Node.home_region node) ~name
        ~kind:kind_tag
    in
    if payload <> node.Node.payload then
      failwith "Hashset.attach: payload size mismatch";
    { node; meta; buckets }

  let table t = P.load (m t) ~holder:(table_holder t)

  (* Walks the chain of [key]'s bucket to its end; [`Found addr] or
     [`Slot holder] (the null slot to append at). *)
  let locate t ~key =
    let tbl = table t in
    let rec go holder =
      let cur = load_link t ~holder in
      if Vaddr.is_null cur then `Slot holder
      else begin
        Node.touch t.node;
        if Machine.load64 (m t) (Vaddr.add cur key_off) = key then `Found cur
        else go cur
      end
    in
    go (bucket_holder tbl (hash_key t ~key))

  let add t ~key =
    match locate t ~key with
    | `Found _ -> false
    | `Slot holder ->
        let a = Node.alloc_node t.node (node_size t) in
        P.store (m t) ~holder:a Vaddr.null;
        Machine.store64 (m t) (Vaddr.add a key_off) key;
        Node.write_payload t.node ~addr:(Vaddr.add a payload_off) ~seed:key;
        (* Modification window: the fresh node must be durable before it
           becomes reachable, so its lines are flushed (and fenced) ahead
           of the single link-and-persist store below. *)
        if durable t then begin
          Durable.flush_range (m t) ~addr:a ~len:(node_size t);
          Durable.fence (m t)
        end;
        store_link t ~holder a;
        true

  let contains t ~key =
    match locate t ~key with `Found _ -> true | `Slot _ -> false

  let remove t ~key =
    let tbl = table t in
    let rec go holder =
      let cur = load_link t ~holder in
      if Vaddr.is_null cur then false
      else begin
        Node.touch t.node;
        if Machine.load64 (m t) (Vaddr.add cur key_off) = key then begin
          store_link t ~holder (load_link t ~holder:cur);
          (* Node storage is leaked: region heaps are bump allocators. *)
          true
        end
        else go cur
      end
    in
    go (bucket_holder tbl (hash_key t ~key))

  let iter t f =
    let tbl = table t in
    for i = 0 to t.buckets - 1 do
      let rec go cur =
        if not (Vaddr.is_null cur) then begin
          Node.touch t.node;
          f ~addr:cur ~key:(Machine.load64 (m t) (Vaddr.add cur key_off));
          go (load_link t ~holder:cur)
        end
      in
      go (load_link t ~holder:(bucket_holder tbl i))
    done

  let size t =
    let n = ref 0 in
    iter t (fun ~addr:_ ~key:_ -> incr n);
    !n

  let buckets t = t.buckets

  let traverse t =
    let tbl = table t in
    let n = ref 0 and sum = ref 0 in
    for i = 0 to t.buckets - 1 do
      let rec go cur =
        if not (Vaddr.is_null cur) then begin
          Node.touch t.node;
          incr n;
          sum := !sum + Machine.load64 (m t) (Vaddr.add cur key_off);
          sum := !sum + Node.read_payload t.node ~addr:(Vaddr.add cur payload_off);
          go (load_link t ~holder:cur)
        end
      in
      go (load_link t ~holder:(bucket_holder tbl i))
    done;
    (!n, !sum)

  let digest t = Digest_obs.v (traverse t)

  let check_swizzle () =
    if not (String.equal P.name Swizzle.name) then
      invalid_arg "Hashset: swizzle pass on a non-swizzle representation"

  (* One walk for both passes: [slot] converts one slot in place and
     returns the absolute address it held or now holds, so the walk
     follows it either way. *)
  let walk t slot =
    check_swizzle ();
    let tbl = slot (m t) ~holder:(table_holder t) in
    for i = 0 to t.buckets - 1 do
      let rec go cur =
        if not (Vaddr.is_null cur) then go (slot (m t) ~holder:cur)
      in
      go (slot (m t) ~holder:(bucket_holder tbl i))
    done

  let swizzle t = walk t Swizzle.swizzle_slot
  let unswizzle t = walk t Swizzle.unswizzle_slot
end
