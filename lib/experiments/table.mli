(** Minimal fixed-width table rendering for experiment reports, plus
    the machine-readable face of the same results.

    [rows] are the human-formatted cells that {!print} renders;
    [records] carry the underlying numbers — typically one JSON record
    per table row, each an object [{"row": label, "cells": [...]}]
    whose cells hold raw simulated cycle counts, slowdown ratios and
    counter breakdowns (see [docs/METRICS.md] for the schema). Rendered
    rows that aggregate several runs (averages) instead carry one
    record per underlying run. The [check] bench mode regresses against
    the records, never the rendered strings. *)

type t = {
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
  records : Nvmpi_obs.Json.t list;
      (** machine-readable records, one per measured row/run *)
}

val cell :
  ?fields:(string * Nvmpi_obs.Json.t) list ->
  label:string ->
  cycles:int ->
  (string * int) list ->
  Nvmpi_obs.Json.t
(** One record cell: [{label; cycles; fields...; counters}], the
    counters being a measured phase's metric deltas. *)

val record : row:string -> Nvmpi_obs.Json.t list -> Nvmpi_obs.Json.t
(** One table record: [{row; cells}]. *)

val count : string -> (string * int) list -> int
(** A counter's delta in a measured phase's counters; 0 when absent
    (zero deltas are omitted). *)

val render : Format.formatter -> t -> unit
val print : t -> unit
(** Renders to stdout. *)

val to_json : t -> Nvmpi_obs.Json.t
(** The full table — title, header, rendered rows, notes and row
    records — as one JSON object. *)
