(** One harness per table/figure of the paper's evaluation (Section 6).

    Every function runs the corresponding experiment on the simulated
    machine and renders a table of measured slowdowns next to the
    paper's reported values. [scale] shrinks element counts for quick
    runs; [1.0] reproduces the paper's sizes (10 000 elements; the
    wordcount defaults are scaled down from the paper's 1M/2M words —
    pass [wordcount_full:true] for the full sizes). [seed] overrides the
    workload seed (default {!Runner.default}'s 42; the wordcount app
    uses its own fixed machine seed unless overridden).

    Alongside the rendered rows, every table carries machine-readable
    [records]: one JSON object per measured row holding raw cycle
    counts, the baseline they are normalized to, and the
    {!Runner.measurement.counters} breakdown. [nvmpi bench --json]
    serializes them and [nvmpi check] regresses against them; the schema
    is documented in [docs/METRICS.md].

    The paper's numbers come from PMEP hardware; ours from a cache/cycle
    model, so the claim being reproduced is the {e shape}: which method
    wins, by roughly what factor, and where the crossovers fall. *)

val slowdowns :
  ?swizzle_single_use:bool ->
  Runner.config ->
  Core.Repr.kind list ->
  Runner.measurement
  * (Core.Repr.kind * (Runner.measurement * Runner.measurement) option) list
(** Runs one configuration under each representation against a shared
    normal-pointer baseline. Returns the baseline measurement and, per
    representation, [Some (measurement, baseline)] — the baseline being
    the measurement the slowdown is computed against — or [None] for
    representations inapplicable to the configuration
    (intra-region-only methods with several regions). Verifies every
    representation reproduces the baseline's traversal checksum.

    With [swizzle_single_use] (Figure 12's setting), the swizzle
    representation is measured at one use — swizzle + 1 traversal +
    unswizzle against 1 normal traversal — regardless of the config's
    traversal count (its returned baseline is then the 1-traversal
    normal run, not the shared one); Table 1 keeps the default and
    sweeps the amortization instead. *)

type row
(** One row of a slowdown table: the configuration every representation
    runs, the paper's value per representation, the rendered row label
    and the record's row name. *)

val row :
  ?record:string ->
  ?paper:(Core.Repr.kind -> float option) ->
  string ->
  Runner.config ->
  row
(** [row label config] renders as [label], and its record is named
    [record] (default [label]). [paper] gives the paper's slowdown per
    representation (default none). *)

val slowdown_table :
  ?swizzle_single_use:bool ->
  title:string ->
  header:string list ->
  notes:string list ->
  Core.Repr.kind list ->
  row list ->
  Table.t
(** Runs {!slowdowns} once per row over the given representations. A
    rendered row is the row's label, then per representation the
    measured slowdown with the paper's value in parentheses, or ["-"]
    where the representation is inapplicable. A record holds a
    ["normal"] baseline cell, then per applicable representation
    [{label; cycles; baseline_cycles; slowdown; counters}]. *)

val fig12 : ?scale:float -> ?seed:int -> unit -> Table.t
(** Figure 12: non-transactional traversal slowdowns, one NVRegion,
    32-byte payload, for the four data structures. *)

val payload_sweep : ?scale:float -> ?seed:int -> unit -> Table.t
(** Section 6.2's payload experiment: average slowdown per method at 32-
    and 256-byte payloads. Records carry the per-structure runs the
    rendered averages are taken over. *)

val table1 : ?scale:float -> ?seed:int -> unit -> Table.t
(** Table 1: pointer-swizzling overhead after 1, 10 and 100 traversals.
    One record per (structure, traversal-count) run. *)

val fig13 : ?scale:float -> ?seed:int -> unit -> Table.t
(** Figure 13: transactional (PMEM.IO-like object store), one NVRegion,
    traversal and random-search workloads. *)

val fig14 : ?scale:float -> ?seed:int -> unit -> Table.t
(** Figure 14: transactional, elements striped over 10 NVRegions. *)

val regions_sweep : ?scale:float -> ?seed:int -> unit -> Table.t
(** Section 6.3's region-count sweep (2/4/8/10 regions). *)

val fig15 : ?scale:float -> ?seed:int -> ?full:bool -> unit -> Table.t
(** Figure 15: wordcount execution times at two input sizes.
    [full] uses the paper's 1M/2M-word inputs (slow). *)

val breakdown : ?scale:float -> ?seed:int -> unit -> Table.t
(** Section 6.2's RIV read-cost breakdown: share of cycles spent
    extracting fields, computing the base address, and finishing the
    read. Its record carries the absolute per-phase cycle counts. *)
