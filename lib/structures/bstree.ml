module Memsim = Nvmpi_memsim.Memsim
module Machine = Core.Machine
module Swizzle = Core.Swizzle
module Vaddr = Nvmpi_addr.Kinds.Vaddr

let kind_tag = 0x12

module Make (P : Core.Repr_sig.S) = struct
  type t = { node : Node.t; meta : Vaddr.t }

  let slot = P.slot_size
  let left_off = 0
  let right_off = slot
  let key_off = 2 * slot
  let payload_off = (2 * slot) + 8
  let node_size t = payload_off + t.node.Node.payload
  let m t = t.node.Node.machine
  let head_holder t = Vaddr.add t.meta Node.head_slot_off

  (* Link-and-persist discipline (docs/DURABLE.md): child links and the
     head link go through [load_link]/[store_link]; under [Eager] both
     are exactly the legacy plain accesses. *)
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

  (* Modification window, part one: make freshly built (still
     unreachable) nodes durable before the single link switch that
     publishes them. *)
  let persist_fresh t fresh =
    if durable t then begin
      List.iter
        (fun a -> Durable.flush_range (m t) ~addr:a ~len:(node_size t))
        fresh;
      Durable.fence (m t)
    end

  let create node ~name =
    let meta = Node.write_meta node ~name ~kind:kind_tag ~aux:0 in
    { node; meta }

  let attach node ~name =
    let meta, payload, _ =
      Node.find_meta node.Node.machine (Node.home_region node) ~name
        ~kind:kind_tag
    in
    if payload <> node.Node.payload then
      failwith "Bstree.attach: payload size mismatch";
    { node; meta }

  let new_node t ~key =
    let a = Node.alloc_node t.node (node_size t) in
    P.store (m t) ~holder:(Vaddr.add a left_off) Vaddr.null;
    P.store (m t) ~holder:(Vaddr.add a right_off) Vaddr.null;
    Machine.store64 (m t) (Vaddr.add a key_off) key;
    Node.write_payload t.node ~addr:(Vaddr.add a payload_off) ~seed:key;
    a

  (* Descends to the node holding [key], or to the slot where it should
     be linked. Returns [`Found addr] or [`Slot holder]. *)
  let locate t ~key =
    let rec go holder =
      let cur = load_link t ~holder in
      if Vaddr.is_null cur then `Slot holder
      else begin
        Node.touch t.node;
        let k = Machine.load64 (m t) (Vaddr.add cur key_off) in
        if key = k then `Found cur
        else if key < k then go (Vaddr.add cur left_off)
        else go (Vaddr.add cur right_off)
      end
    in
    go (head_holder t)

  let insert t ~key =
    match locate t ~key with
    | `Found _ -> false
    | `Slot holder ->
        let a = new_node t ~key in
        persist_fresh t [ a ];
        store_link t ~holder a;
        true

  let insert_count t ~key =
    if t.node.Node.payload < 8 then
      invalid_arg "Bstree.insert_count: payload too small for a counter";
    match locate t ~key with
    | `Found cur ->
        let c = Machine.load64 (m t) (Vaddr.add cur payload_off) in
        Machine.store64 (m t) (Vaddr.add cur payload_off) (c + 1)
    | `Slot holder ->
        let a = new_node t ~key in
        Machine.store64 (m t) (Vaddr.add a payload_off) 1;
        persist_fresh t [ a ];
        store_link t ~holder a

  (* Copies [src]'s key and payload into a fresh node with the given
     children — the building block of [remove]'s path-copying. *)
  let copy_node t ~src ~left ~right =
    let a = Node.alloc_node t.node (node_size t) in
    P.store (m t) ~holder:(Vaddr.add a left_off) left;
    P.store (m t) ~holder:(Vaddr.add a right_off) right;
    Machine.store64 (m t) (Vaddr.add a key_off)
      (Machine.load64 (m t) (Vaddr.add src key_off));
    Node.copy_payload t.node ~src:(Vaddr.add src payload_off)
      ~dst:(Vaddr.add a payload_off);
    a

  (* Removes the minimum of the non-empty subtree rooted at [cur] by
     path-copying: returns the minimum's address, the new subtree root
     and the fresh copies made along the spine. Nothing reachable is
     mutated, so the caller can publish the whole rewrite with a single
     link switch — the property the durable modification window needs
     (and, in eager mode, what keeps the operation a one-store splice). *)
  let rec remove_min t cur =
    let l = load_link t ~holder:(Vaddr.add cur left_off) in
    if Vaddr.is_null l then
      (cur, load_link t ~holder:(Vaddr.add cur right_off), [])
    else begin
      Node.touch t.node;
      let min, l', fresh = remove_min t l in
      let r = load_link t ~holder:(Vaddr.add cur right_off) in
      let copy = copy_node t ~src:cur ~left:l' ~right:r in
      (min, copy, copy :: fresh)
    end

  (* Unlinks [cur] (pointed at by [holder]): leaf and one-child cases
     splice with a single link store; the two-child case replaces [cur]
     by a copy of its successor over a path-copied right subtree, again
     published by one link store. Displaced nodes are leaked — region
     heaps are bump allocators. *)
  let unlink t ~holder ~cur =
    let l = load_link t ~holder:(Vaddr.add cur left_off) in
    let r = load_link t ~holder:(Vaddr.add cur right_off) in
    if Vaddr.is_null l then store_link t ~holder r
    else if Vaddr.is_null r then store_link t ~holder l
    else begin
      let succ, r', fresh = remove_min t r in
      let repl = copy_node t ~src:succ ~left:l ~right:r' in
      persist_fresh t (repl :: fresh);
      store_link t ~holder repl
    end

  let remove t ~key =
    let rec go holder =
      let cur = load_link t ~holder in
      if Vaddr.is_null cur then false
      else begin
        Node.touch t.node;
        let k = Machine.load64 (m t) (Vaddr.add cur key_off) in
        if key = k then begin
          unlink t ~holder ~cur;
          true
        end
        else if key < k then go (Vaddr.add cur left_off)
        else go (Vaddr.add cur right_off)
      end
    in
    go (head_holder t)

  let count t ~key =
    match locate t ~key with
    | `Found cur -> Machine.load64 (m t) (Vaddr.add cur payload_off)
    | `Slot _ -> 0

  let search t ~key =
    match locate t ~key with `Found _ -> true | `Slot _ -> false

  let iter t f =
    let rec go cur =
      if not (Vaddr.is_null cur) then begin
        Node.touch t.node;
        f ~addr:cur ~key:(Machine.load64 (m t) (Vaddr.add cur key_off));
        go (load_link t ~holder:(Vaddr.add cur left_off));
        go (load_link t ~holder:(Vaddr.add cur right_off))
      end
    in
    go (load_link t ~holder:(head_holder t))

  let size t =
    let n = ref 0 in
    iter t (fun ~addr:_ ~key:_ -> incr n);
    !n

  let depth t =
    let rec go cur =
      if Vaddr.is_null cur then 0
      else
        1
        + max
            (go (load_link t ~holder:(Vaddr.add cur left_off)))
            (go (load_link t ~holder:(Vaddr.add cur right_off)))
    in
    go (load_link t ~holder:(head_holder t))

  let traverse t =
    let n = ref 0 and sum = ref 0 in
    let rec go cur =
      if not (Vaddr.is_null cur) then begin
        Node.touch t.node;
        incr n;
        sum := !sum + Machine.load64 (m t) (Vaddr.add cur key_off);
        sum := !sum + Node.read_payload t.node ~addr:(Vaddr.add cur payload_off);
        go (load_link t ~holder:(Vaddr.add cur left_off));
        go (load_link t ~holder:(Vaddr.add cur right_off))
      end
    in
    go (load_link t ~holder:(head_holder t));
    (!n, !sum)

  let digest t = Digest_obs.v (traverse t)

  let check_swizzle () =
    if not (String.equal P.name Swizzle.name) then
      invalid_arg "Bstree: swizzle pass on a non-swizzle representation"

  (* One walk for both passes: [slot] converts one slot in place and
     returns the absolute address it held or now holds, so the walk
     follows it either way. *)
  let walk t slot =
    check_swizzle ();
    let rec go cur =
      if not (Vaddr.is_null cur) then begin
        go (slot (m t) ~holder:(Vaddr.add cur left_off));
        go (slot (m t) ~holder:(Vaddr.add cur right_off))
      end
    in
    go (slot (m t) ~holder:(head_holder t))

  let swizzle t = walk t Swizzle.swizzle_slot
  let unswizzle t = walk t Swizzle.unswizzle_slot
end
