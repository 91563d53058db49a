(** One level of a set-associative, write-back, write-allocate cache with
    LRU replacement. Used as a building block by {!module:Timing}.

    Each set is kept as an LRU stack, one word per way: a hit moves its
    line to the front and a miss evicts the line at the back, so no
    access scans for a victim. Storage is allocated on first fill, eight
    consecutive sets at a time, so creating a level costs one word per
    eight sets whatever its capacity. *)

type t

(** {1 Access result encoding}

    [access] returns an unboxed [int] so the per-access path allocates
    nothing: {!hit} for a hit, {!miss_clean} for a miss whose victim
    needed no write-back, and any value [>= 0] — the line-aligned
    address of the evicted dirty line — for a miss that displaced dirty
    data. Both sentinels are negative; simulated addresses are never. *)

val hit : int
(** [-1]: the line was resident. *)

val miss_clean : int
(** [-2]: a miss that evicted nothing dirty. *)

val create : size_bytes:int -> ways:int -> line_bits:int -> t
(** [create ~size_bytes ~ways ~line_bits] builds a cache of
    [size_bytes / (ways * 2^line_bits)] sets. All parameters must be
    powers of two and consistent. *)

val access : t -> addr:int -> write:bool -> int
(** Looks up the line containing [addr]; on a miss the line is filled
    (allocated) and the LRU victim evicted. [write] marks the line
    dirty. Returns {!hit}, {!miss_clean}, or the evicted dirty line's
    address (see the encoding above). *)

val flush_line : t -> addr:int -> bool
(** [flush_line t ~addr] invalidates the line containing [addr] if
    present, returning [true] iff it was present and dirty (i.e. a
    write-back to memory is needed). *)

val invalidate_all : t -> unit
(** Invalidates every line without writing anything back. *)

val sets : t -> int
