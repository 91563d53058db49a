(** Deterministic workload generators for the evaluation experiments. *)

val keys : n:int -> seed:int -> int array
(** [n] distinct positive keys in pseudo-random order. *)

val shuffle : 'a array -> seed:int -> 'a array
(** A shuffled copy. *)

val search_sample : keys:int array -> n:int -> seed:int -> int array
(** [n] keys drawn uniformly (with replacement) from [keys] — the
    random-search workload of Section 6.3. *)

val key_word : int -> string
(** Total injective mapping from positive keys to lowercase words (the
    key's base-26 digit string). *)
