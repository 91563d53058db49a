(** Undo-log transactions over an {!Objstore}, in the style of
    PMEM.IO's [TX_BEGIN]/[TX_ADD]/[TX_END].

    The first store to each 8-byte word inside a transaction snapshots
    the old contents into the region's persisted undo log (data copy +
    cache-line flush + persist fence, charged to the timing model), so
    that an interrupted transaction can be rolled back on recovery.

    Typical use:
    {[
      let tx = Tx.create os in
      Tx.run tx (fun () ->
          Tx.store64 tx a 1;
          Tx.store64 tx b 2)
    ]}

    A crash is simulated with {!simulate_crash}, which models a full
    cache-loss power failure; the next {!Objstore.attach} rolls the
    persisted log back. *)

type t

exception Not_in_transaction
exception Already_in_transaction

val create : Objstore.t -> t
val objstore : t -> Objstore.t

val active : t -> bool

val begin_tx : t -> unit
val commit : t -> unit
(** Flushes every line dirtied by the transaction once, in the order
    the transaction first dirtied them, fences, and truncates the undo
    log. *)

val abort : t -> unit
(** Rolls the undo log back (restoring all pre-transaction contents) and
    truncates it. *)

val run : t -> (unit -> 'a) -> 'a
(** [run t f] wraps [f] in begin/commit; any exception aborts and is
    re-raised. *)

val store64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int -> unit
(** Transactional store: undo-logs the word on first touch, then writes.
    Outside a transaction it behaves as a plain store. *)

val load64 : t -> Nvmpi_addr.Kinds.Vaddr.t -> int
(** Plain load (reads need no logging), charged with the object-store
    read-accessor overhead. *)

val add_range : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> unit
(** Pre-logs an arbitrary byte range (PMEM.IO's [TX_ADD]); subsequent
    plain stores to it are then crash-safe within this transaction. *)

val add_fresh : t -> addr:Nvmpi_addr.Kinds.Vaddr.t -> len:int -> unit
(** Registers a {e freshly allocated} byte range with the transaction:
    no undo record is written (there is no old data to restore — on
    rollback the allocation is simply garbage), but every covered cache
    line is flushed by {!commit}, so objects built with plain stores are
    durable exactly when the pointers committed to them are. Raises
    {!Not_in_transaction} outside a transaction and [Invalid_argument]
    on an empty range. *)

val simulate_crash : t -> unit
(** Models a full cache-loss power failure in the middle of the
    transaction: no commit, no rollback, host transaction state cleared.
    When a fault-injection tracker is attached to the machine
    ([Core.Machine.crash_hook]), live memory is reverted to its durable
    bytes — exactly the contents an [Nvmpi_faultsim] crash image would
    hold — and the caches are cold-started; without a tracker memory is
    conservatively left as-is (every dirty line "reached" NVM). The
    persisted undo log keeps its records either way; recovery happens at
    the next {!Objstore.attach}. *)
