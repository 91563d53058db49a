module Memsim = Nvmpi_memsim.Memsim
module Machine = Core.Machine
module Swizzle = Core.Swizzle
module Vaddr = Nvmpi_addr.Kinds.Vaddr

let kind_tag = 0x14
let fanout = 26

module Make (P : Core.Repr_sig.S) = struct
  type t = { node : Node.t; meta : Vaddr.t }

  let slot = P.slot_size
  let flag_off = fanout * slot
  let payload_off = flag_off + 8
  let node_size t = payload_off + t.node.Node.payload
  let m t = t.node.Node.machine
  let head_holder t = Vaddr.add t.meta Node.head_slot_off
  let child_holder a c = Vaddr.add a (c * slot)

  let create node ~name =
    let meta = Node.write_meta node ~name ~kind:kind_tag ~aux:0 in
    { node; meta }

  let attach node ~name =
    let meta, payload, _ =
      Node.find_meta node.Node.machine (Node.home_region node) ~name
        ~kind:kind_tag
    in
    if payload <> node.Node.payload then
      failwith "Trie.attach: payload size mismatch";
    { node; meta }

  let letter word i =
    let c = Char.code word.[i] - Char.code 'a' in
    if c < 0 || c >= fanout then
      invalid_arg "Trie: words must be lowercase a-z";
    c

  let new_node t ~seed =
    let a = Node.alloc_node t.node (node_size t) in
    for c = 0 to fanout - 1 do
      P.store (m t) ~holder:(child_holder a c) Vaddr.null
    done;
    Machine.store64 (m t) (Vaddr.add a flag_off) 0;
    Node.write_payload t.node ~addr:(Vaddr.add a payload_off) ~seed;
    a

  (* The root node is created lazily on first insert. *)
  let root t ~create_missing =
    let a = P.load (m t) ~holder:(head_holder t) in
    if Vaddr.is_null a && create_missing then begin
      let a = new_node t ~seed:0 in
      P.store (m t) ~holder:(head_holder t) a;
      a
    end
    else a

  let insert t word =
    if String.length word = 0 then invalid_arg "Trie.insert: empty word";
    let rec go a i =
      if i = String.length word then begin
        let fresh = Machine.load64 (m t) (Vaddr.add a flag_off) = 0 in
        Machine.store64 (m t) (Vaddr.add a flag_off) 1;
        fresh
      end
      else begin
        Node.touch t.node;
        let c = letter word i in
        let holder = child_holder a c in
        let next =
          let b = P.load (m t) ~holder in
          if Vaddr.is_null b then begin
            let b = new_node t ~seed:((i * 31) + c) in
            P.store (m t) ~holder b;
            b
          end
          else b
        in
        go next (i + 1)
      end
    in
    go (root t ~create_missing:true) 0

  let contains t word =
    if String.length word = 0 then invalid_arg "Trie.contains: empty word";
    let rec go a i =
      (not (Vaddr.is_null a))
      &&
      if i = String.length word then (
        Node.touch t.node;
        Machine.load64 (m t) (Vaddr.add a flag_off) = 1)
      else begin
        Node.touch t.node;
        go (P.load (m t) ~holder:(child_holder a (letter word i))) (i + 1)
      end
    in
    go (root t ~create_missing:false) 0

  let fold t f acc =
    let buf = Buffer.create 16 in
    let rec go a acc =
      if Vaddr.is_null a then acc
      else begin
        Node.touch t.node;
        let acc =
          if Machine.load64 (m t) (Vaddr.add a flag_off) = 1 then
            f acc (Buffer.contents buf)
          else acc
        in
        let acc = ref acc in
        for c = 0 to fanout - 1 do
          let child = P.load (m t) ~holder:(child_holder a c) in
          if not (Vaddr.is_null child) then begin
            Buffer.add_char buf (Char.chr (Char.code 'a' + c));
            acc := go child !acc;
            Buffer.truncate buf (Buffer.length buf - 1)
          end
        done;
        !acc
      end
    in
    go (root t ~create_missing:false) acc

  let iter_words t f = fold t (fun () w -> f w) ()
  let word_count t = fold t (fun n _ -> n + 1) 0

  let node_count t =
    let rec go a =
      if Vaddr.is_null a then 0
      else begin
        let n = ref 1 in
        for c = 0 to fanout - 1 do
          n := !n + go (P.load (m t) ~holder:(child_holder a c))
        done;
        !n
      end
    in
    go (root t ~create_missing:false)

  let traverse t =
    let n = ref 0 and sum = ref 0 in
    let rec go a =
      if not (Vaddr.is_null a) then begin
        Node.touch t.node;
        incr n;
        sum := !sum + Machine.load64 (m t) (Vaddr.add a flag_off);
        sum := !sum + Node.read_payload t.node ~addr:(Vaddr.add a payload_off);
        for c = 0 to fanout - 1 do
          go (P.load (m t) ~holder:(child_holder a c))
        done
      end
    in
    go (root t ~create_missing:false);
    (!n, !sum)

  let digest t = Digest_obs.v (traverse t)

  let check_swizzle () =
    if not (String.equal P.name Swizzle.name) then
      invalid_arg "Trie: swizzle pass on a non-swizzle representation"

  (* One walk for both passes: [slot] converts one slot in place and
     returns the absolute address it held or now holds, so the walk
     follows it either way. *)
  let walk t slot =
    check_swizzle ();
    let rec go a =
      if not (Vaddr.is_null a) then
        for c = 0 to fanout - 1 do
          go (slot (m t) ~holder:(child_holder a c))
        done
    in
    go (slot (m t) ~holder:(head_holder t))

  let swizzle t = walk t Swizzle.swizzle_slot
  let unswizzle t = walk t Swizzle.unswizzle_slot
end
