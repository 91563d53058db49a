(** A minimal, dependency-free JSON tree with an encoder and a strict
    parser — enough for the benchmark snapshots ({!Metrics} counter
    dumps, {!val:to_file}d [BENCH_*.json] baselines) without pulling a
    JSON library into the simulator's dependency cone.

    Numbers are split into [Int] and [Float]: counters stay exact
    OCaml [int]s through a round-trip, while ratios (slowdowns) are
    printed with enough digits to read back equal. Non-finite floats
    encode as [null] (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(** {1 Encoding} *)

val to_string : ?compact:bool -> t -> string
(** Renders the tree as JSON text. The default is pretty-printed with
    two-space indentation (stable, diff-friendly output for committed
    baselines); [compact] produces a single line. *)

val to_file : string -> t -> unit
(** Writes {!to_string} (pretty, with a trailing newline) to a file. *)

(** {1 Parsing} *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document: rejects trailing input,
    unterminated constructs and malformed escapes. Errors carry a byte
    offset. Numbers with a fraction or exponent parse as [Float],
    anything else as [Int] (falling back to [Float] on overflow). *)

val of_file : string -> (t, string) result

(** {1 Accessors}

    All accessors are total: they return [None] on a type or key
    mismatch, so schema-reading code ({!Suite}-style checkers) can
    validate as it descends. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for other constructors or missing keys. *)

val as_int : t -> int option
(** [Int n] and integral [Float]s. *)

val as_float : t -> float option
(** [Float] and [Int] (widened). *)

val as_string : t -> string option
val as_bool : t -> bool option
val as_list : t -> t list option
