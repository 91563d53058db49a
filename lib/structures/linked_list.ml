module Memsim = Nvmpi_memsim.Memsim
module Machine = Core.Machine
module Swizzle = Core.Swizzle
module Vaddr = Nvmpi_addr.Kinds.Vaddr

let kind_tag = 0x11

module Make (P : Core.Repr_sig.S) = struct
  type t = {
    node : Node.t;
    meta : Vaddr.t;
    mutable tail : Vaddr.t;
        (* host cache of the last node; null = unknown/empty *)
  }

  let slot = P.slot_size
  let key_off = slot
  let payload_off = slot + 8
  let node_size t = payload_off + t.node.Node.payload
  let m t = t.node.Node.machine
  let head_holder t = Vaddr.add t.meta Node.head_slot_off

  let create node ~name =
    let meta = Node.write_meta node ~name ~kind:kind_tag ~aux:0 in
    { node; meta; tail = Vaddr.null }

  let attach node ~name =
    let meta, payload, _ =
      Node.find_meta node.Node.machine (Node.home_region node) ~name
        ~kind:kind_tag
    in
    if payload <> node.Node.payload then
      failwith "Linked_list.attach: payload size mismatch";
    { node; meta; tail = Vaddr.null }

  let new_node t ~key =
    let a = Node.alloc_node t.node (node_size t) in
    Machine.store64 (m t) (Vaddr.add a key_off) key;
    Node.write_payload t.node ~addr:(Vaddr.add a payload_off) ~seed:key;
    a

  let push_front t ~key =
    let a = new_node t ~key in
    let old_head = P.load (m t) ~holder:(head_holder t) in
    P.store (m t) ~holder:a old_head;
    P.store (m t) ~holder:(head_holder t) a;
    if Vaddr.is_null old_head then t.tail <- a

  let find_tail t =
    let rec go cur =
      let next = P.load (m t) ~holder:cur in
      if Vaddr.is_null next then cur else go next
    in
    let h = P.load (m t) ~holder:(head_holder t) in
    if Vaddr.is_null h then Vaddr.null else go h

  let append t ~key =
    let a = new_node t ~key in
    P.store (m t) ~holder:a Vaddr.null;
    let tail = if not (Vaddr.is_null t.tail) then t.tail else find_tail t in
    if Vaddr.is_null tail then P.store (m t) ~holder:(head_holder t) a
    else P.store (m t) ~holder:tail a;
    t.tail <- a

  let iter t f =
    let rec go cur =
      if not (Vaddr.is_null cur) then begin
        Node.touch t.node;
        f ~addr:cur ~key:(Machine.load64 (m t) (Vaddr.add cur key_off));
        go (P.load (m t) ~holder:cur)
      end
    in
    go (P.load (m t) ~holder:(head_holder t))

  let length t =
    let n = ref 0 in
    iter t (fun ~addr:_ ~key:_ -> incr n);
    !n

  let traverse t =
    let n = ref 0 and sum = ref 0 in
    let rec go cur =
      if not (Vaddr.is_null cur) then begin
        Node.touch t.node;
        incr n;
        sum := !sum + Machine.load64 (m t) (Vaddr.add cur key_off);
        sum := !sum + Node.read_payload t.node ~addr:(Vaddr.add cur payload_off);
        go (P.load (m t) ~holder:cur)
      end
    in
    go (P.load (m t) ~holder:(head_holder t));
    (!n, !sum)

  let digest t = Digest_obs.v (traverse t)

  let find t ~key =
    let rec go cur =
      (not (Vaddr.is_null cur))
      &&
      (Node.touch t.node;
       Machine.load64 (m t) (Vaddr.add cur key_off) = key
       || go (P.load (m t) ~holder:cur))
    in
    go (P.load (m t) ~holder:(head_holder t))

  let remove t ~key =
    let rec go prev_holder cur =
      if Vaddr.is_null cur then false
      else begin
        Node.touch t.node;
        if Machine.load64 (m t) (Vaddr.add cur key_off) = key then begin
          let next = P.load (m t) ~holder:cur in
          P.store (m t) ~holder:prev_holder next;
          (* Node storage is leaked: region heaps are bump allocators. *)
          t.tail <- Vaddr.null;
          true
        end
        else go cur (P.load (m t) ~holder:cur)
      end
    in
    go (head_holder t) (P.load (m t) ~holder:(head_holder t))

  let check_swizzle () =
    if not (String.equal P.name Swizzle.name) then
      invalid_arg "Linked_list: swizzle pass on a non-swizzle representation"

  (* One walk for both passes: [slot] converts one slot in place and
     returns the absolute address it held or now holds, so the walk
     follows it either way. *)
  let walk t slot =
    check_swizzle ();
    let rec go cur =
      if not (Vaddr.is_null cur) then go (slot (m t) ~holder:cur)
    in
    go (slot (m t) ~holder:(head_holder t))

  let swizzle t = walk t Swizzle.swizzle_slot
  let unswizzle t = walk t Swizzle.unswizzle_slot
end
