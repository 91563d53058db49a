(** The persistence discipline of one run, fixed per machine at
    {!Machine.create} (docs/DURABLE.md, docs/SNAPSHOT.md).

    - [Eager]: the legacy behaviour; structure code issues no
      persistence actions.
    - [Traverse]: link-and-persist for hashset and bstree under the
      8-byte-slot representations (NVTraverse).
    - [Snapshot g]: failure-atomic sync epochs over a write-ahead log
      at line or page granularity; structure code runs flush-free, the
      kvstore takes its plain write path and tenant heaps the
      flush-free freelist. *)

type granularity = Line | Page
type t = Eager | Traverse | Snapshot of granularity

(** The deliberately broken protocols of the faultsim selftest doubles
    (docs/FAULTSIM.md); a machine created with one runs it. *)
type fault =
  | Drop_window_flushes
      (** link-and-persist issues no window flush and no fence *)
  | Drop_writeback
      (** a snapshot sync skips its in-place write-back but still
          truncates its log *)

val names : string list
(** The command-line spellings, in order: [eager], [traverse],
    [snapshot] (line granularity) and [snapshot-page]. *)

val to_string : t -> string
val of_string : string -> t option

val report_fields : t -> (string * Nvmpi_obs.Json.t) list
(** The [durability] member a JSON report carries: none for [Eager], so
    default reports keep their bytes. *)
