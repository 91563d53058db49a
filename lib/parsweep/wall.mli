(** Monotonic wall-clock measurement for the sweep engine and the
    benchmark harness.

    Simulated cycle counts are deterministic and live in the table
    cells; wall-clock nanoseconds measure the {e simulator} and are
    inherently nondeterministic, so they are kept strictly out of any
    data a regression check or determinism test compares (see
    [docs/PERF.md]). *)

val now_ns : unit -> int
(** Nanoseconds on the OS monotonic clock ([CLOCK_MONOTONIC]). Only
    differences are meaningful. A native [int] holds monotonic
    nanoseconds for ~292 years. *)

val time : (unit -> 'a) -> 'a * int
(** [time f] runs [f] and returns its result with the elapsed
    nanoseconds. *)
