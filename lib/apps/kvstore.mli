(** A crash-consistent persistent key-value store: the kind of
    application the paper's introduction motivates (key-value stores on
    NVM), combining the transactional object store with
    position-independent pointers.

    Layout: a chained hash index whose pointer slots use the chosen
    representation; values are variable-length byte objects
    ([length | bytes]) in the same object store.

    Two write paths ({!write_path}):
    - [`Tx] (the default): updates run inside undo-logged
      transactions, so a crash mid-[put]/[delete] rolls back to the
      previous state on the next {!attach}; replaced values are
      reclaimed only after commit (a crash can leak an object but
      never corrupt the index — the usual deferred-reclamation
      trade-off).
    - [`Plain] (snapshot durability, docs/SNAPSHOT.md): every store is
      un-instrumented — no undo logging, no flush, no fence — and the
      caller makes whole epochs durable with
      [Nvmpi_snapshot.Snapshot.sync]. The default is [`Plain] on a
      machine created with [~durability:(Snapshot _)].

    The whole store is anchored at a named NVRoot and survives region
    remaps. *)

type t

val create :
  Nvmpi_tx.Objstore.t -> repr:Core.Repr.kind -> name:string ->
  ?buckets:int -> ?write_path:[ `Tx | `Plain ] -> unit -> t
(** Formats a fresh store (default 256 buckets) in the object store's
    region. *)

val attach :
  ?write_path:[ `Tx | `Plain ] -> Nvmpi_tx.Objstore.t ->
  repr:Core.Repr.kind -> name:string -> t
(** Re-opens a store (possibly after a remap/crash).
    @raise Failure if the root is missing or of the wrong kind. *)

val write_path : t -> [ `Tx | `Plain ]

val put : t -> key:int -> string -> unit
(** Inserts or replaces, atomically w.r.t. crashes. *)

val get : t -> key:int -> string option
val mem : t -> key:int -> bool

val delete : t -> key:int -> bool
(** Atomically removes; [false] if absent. *)

val size : t -> int
val keys : t -> int list
(** All keys, sorted. *)

val iter : t -> (key:int -> value:string -> unit) -> unit

val simulate_crash_during_put : t -> key:int -> string -> unit
(** Starts a [put] and drops power before commit (test/demo hook): the
    persisted undo log still holds the records, and the next
    {!attach} rolls back. [`Tx] write path only
    (@raise Invalid_argument under [`Plain]). *)
