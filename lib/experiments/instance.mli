(** Uniform handle over any (data structure, pointer representation)
    pair, so the experiment runner can sweep both dimensions without
    knowing the concrete functor instantiations.

    Integer keys drive every structure. The trie stores words: a key's
    low 17 bits select one word of a fixed 2{^17}-word vocabulary. The
    mapping is not injective, so two keys may insert the same word
    ({!Workload.keys} at 10,000 keys and seed 42 gives 9,641 distinct
    words). *)

type structure = List | Btree | Hashset | Trie | Dllist | Graph | Bplus

val structures : structure list
(** The paper's four evaluated structures. *)

val extension_structures : structure list
(** The additional structures this library ships: doubly linked list,
    directed graph, B+ tree. *)

val structure_name : structure -> string

val default_buckets : int
(** Bucket count used for hash-set instances (512). *)

val force_trie_vocab : unit -> unit
(** Builds the vocabulary trie instances share, once per process. Call
    it before running instances on several domains: a lazy value forced
    by two domains at once raises [CamlinternalLazy.Undefined]. *)

type t = {
  insert : int -> unit;
  remove : int -> bool;
      (** [true] if the key was present; always [false] for structures
          without an integer-keyed removal API (trie, graph) *)
  traverse : unit -> int * int;  (** (nodes visited, checksum) *)
  search : int -> bool;
  swizzle : unit -> unit;  (** swizzle-representation instances only *)
  unswizzle : unit -> unit;
}

val create :
  structure -> Core.Repr.kind -> Nvmpi_structures.Node.t -> name:string -> t
(** Creates an empty structure anchored at root [name]. *)

val attach :
  structure -> Core.Repr.kind -> Nvmpi_structures.Node.t -> name:string -> t
(** Re-opens a structure created earlier (possibly in another run). *)
