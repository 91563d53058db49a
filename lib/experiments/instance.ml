module Repr = Core.Repr
module S = Nvmpi_structures

type structure = List | Btree | Hashset | Trie | Dllist | Graph | Bplus

let structures = [ List; Btree; Hashset; Trie ]
let extension_structures = [ Dllist; Graph; Bplus ]

let structure_name = function
  | List -> "list"
  | Btree -> "btree"
  | Hashset -> "hashset"
  | Trie -> "trie"
  | Dllist -> "dllist"
  | Graph -> "graph"
  | Bplus -> "b+tree"

let structure_of_string = function
  | "list" -> Some List
  | "btree" | "tree" | "bst" -> Some Btree
  | "hashset" | "hash" -> Some Hashset
  | "trie" -> Some Trie
  | "dllist" -> Some Dllist
  | "graph" -> Some Graph
  | "b+tree" | "bplus" -> Some Bplus
  | _ -> None

type t = {
  insert : int -> unit;
  remove : int -> bool;
      (* [true] if the key was present; always [false] for structures
         without a removal API (trie, graph) or with a value-oriented
         one the integer workloads do not drive (b+tree's leaf delete) *)
  traverse : unit -> int * int;
  search : int -> bool;
  swizzle : unit -> unit;
  unswizzle : unit -> unit;
}

(* The hash set mirrors the paper's setup: N entries with chains; a
   bucket count well below the element count keeps chains non-trivial. *)
let default_buckets = 512

(* Tries are driven by the same integer workloads as the other
   structures, but store words: keys index a fixed syllable-built
   vocabulary whose prefix sharing resembles English (the paper stores
   English words). The vocabulary is shared across instances so every
   representation inserts exactly the same words. *)
let trie_vocab =
  lazy (Nvmpi_apps.Text_gen.vocabulary ~size:(1 lsl 17) ~seed:7)

let force_trie_vocab () = ignore (Lazy.force trie_vocab)
let trie_word key = (Lazy.force trie_vocab).(key land ((1 lsl 17) - 1))

(* Applies only the structure functor the instance needs. A functor
   body binds offset constants before its functions, so applying it per
   instance is cheap. *)
let make structure kind node ~name ~fresh =
  let (module P : Core.Repr_sig.S) = Repr.m kind in
  match structure with
  | List ->
      let module L = S.Linked_list.Make (P) in
      let t = if fresh then L.create node ~name else L.attach node ~name in
      {
        insert = (fun key -> L.append t ~key);
        remove = (fun key -> L.remove t ~key);
        traverse = (fun () -> L.traverse t);
        search = (fun key -> L.find t ~key);
        swizzle = (fun () -> L.swizzle t);
        unswizzle = (fun () -> L.unswizzle t);
      }
  | Btree ->
      let module B = S.Bstree.Make (P) in
      let t = if fresh then B.create node ~name else B.attach node ~name in
      {
        insert = (fun key -> ignore (B.insert t ~key));
        remove = (fun key -> B.remove t ~key);
        traverse = (fun () -> B.traverse t);
        search = (fun key -> B.search t ~key);
        swizzle = (fun () -> B.swizzle t);
        unswizzle = (fun () -> B.unswizzle t);
      }
  | Hashset ->
      let module H = S.Hashset.Make (P) in
      let t =
        if fresh then H.create node ~name ~buckets:default_buckets
        else H.attach node ~name
      in
      {
        insert = (fun key -> ignore (H.add t ~key));
        remove = (fun key -> H.remove t ~key);
        traverse = (fun () -> H.traverse t);
        search = (fun key -> H.contains t ~key);
        swizzle = (fun () -> H.swizzle t);
        unswizzle = (fun () -> H.unswizzle t);
      }
  | Trie ->
      let module T = S.Trie.Make (P) in
      let t = if fresh then T.create node ~name else T.attach node ~name in
      {
        insert = (fun key -> ignore (T.insert t (trie_word key)));
        remove = (fun _ -> false);
        traverse = (fun () -> T.traverse t);
        search = (fun key -> T.contains t (trie_word key));
        swizzle = (fun () -> T.swizzle t);
        unswizzle = (fun () -> T.unswizzle t);
      }
  | Dllist ->
      let module D = S.Dllist.Make (P) in
      let t = if fresh then D.create node ~name else D.attach node ~name in
      {
        insert = (fun key -> D.push_back t ~key);
        remove = (fun key -> D.remove t ~key);
        traverse = (fun () -> D.traverse t);
        search = (fun key -> D.find t ~key);
        swizzle = (fun () -> D.swizzle t);
        unswizzle = (fun () -> D.unswizzle t);
      }
  | Graph ->
      let module G = S.Graph.Make (P) in
      let t = if fresh then G.create node ~name else G.attach node ~name in
      (* Each inserted key becomes a vertex chained to the previous one
         (deterministic, so all representations build the same graph). *)
      let prev = ref 0 in
      {
        insert =
          (fun key ->
            ignore (G.add_vertex t ~key);
            if !prev <> 0 then G.add_edge t ~src:key ~dst:!prev;
            prev := key);
        remove = (fun _ -> false);
        traverse = (fun () -> G.traverse t);
        search = (fun key -> G.mem_vertex t ~key);
        swizzle = (fun () -> G.swizzle t);
        unswizzle = (fun () -> G.unswizzle t);
      }
  | Bplus ->
      let module B = S.Bplus.Make (P) in
      let t = if fresh then B.create node ~name () else B.attach node ~name in
      {
        insert = (fun key -> B.insert t ~key ~value:(key * 3));
        remove = (fun key -> B.delete t ~key);
        traverse = (fun () -> B.traverse t);
        search = (fun key -> B.lookup t ~key <> None);
        swizzle = (fun () -> B.swizzle t);
        unswizzle = (fun () -> B.unswizzle t);
      }

let create structure kind node ~name = make structure kind node ~name ~fresh:true

let attach structure kind node ~name =
  make structure kind node ~name ~fresh:false
