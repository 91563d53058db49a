(* Storage is allocated on first fill, one chunk of consecutive sets at a
   time, so a run pays for the chunks it touches and not for the
   modelled capacity (docs/PERF.md, "Cache-level storage"). A set is
   [ways] ints of its chunk kept in recency order: packed words
   [(line lsl 1) lor dirty], most recently used first, then [invalid]
   entries. Set helpers take [int array]: on an ['a array] every write
   is a [caml_modify] call. *)
type t = {
  line_bits : int;
  set_mask : int;
  chunk_bits : int; (* log2 of the sets per chunk *)
  ways : int;
  chunks : int array array; (* [empty] until one of its sets fills *)
  (* The line of the last access, the front entry of the set at
     [last_base] in chunk [last_chunk]; -1 when forgotten. Indices, not
     the chunk itself: storing a pointer would cost a write barrier on
     every probe. *)
  mutable last_line : int;
  mutable last_chunk : int;
  mutable last_base : int;
}

(* Eight sets per chunk keep the chunk table of the default 32 MiB L3 at
   4 Ki words, small enough to stay in the host's caches; with one entry
   per set (32 Ki words) the table lookup missed there on large working
   sets. A chunk of that 16-way L3 is 128 ints. *)
let max_chunk_sets = 8
let empty : int array = [||]
let invalid = -1

(* Unboxed result encoding for [access]: negative values are the two
   allocation-free outcomes, any value >= 0 is the line-aligned address
   of a dirty victim that must be written back. *)
let hit = -1
let miss_clean = -2

let create ~size_bytes ~ways ~line_bits =
  let line = 1 lsl line_bits in
  if not (Nvmpi_addr.Bitops.is_pow2 size_bytes && Nvmpi_addr.Bitops.is_pow2 ways)
  then invalid_arg "Cache_level.create: sizes must be powers of two";
  let sets = size_bytes / (ways * line) in
  if sets < 1 || not (Nvmpi_addr.Bitops.is_pow2 sets) then
    invalid_arg "Cache_level.create: inconsistent geometry";
  let chunk_bits = Nvmpi_addr.Bitops.log2_exact (min sets max_chunk_sets) in
  {
    line_bits;
    set_mask = sets - 1;
    chunk_bits;
    ways;
    chunks = Array.make (sets lsr chunk_bits) empty;
    last_line = -1;
    last_chunk = 0;
    last_base = 0;
  }

let sets t = t.set_mask + 1

(* First entry of set [s] in its chunk. *)
let base t s = (s land ((1 lsl t.chunk_bits) - 1)) * t.ways

(* Kept out of [probe], which then stores only ints. *)
let[@inline never] install t c =
  let chunk = Array.make (t.ways lsl t.chunk_bits) invalid in
  t.chunks.(c) <- chunk;
  chunk

(* Looks [line] up in its set and leaves it at the front, where the memo
   points: a hit moves its entry there, a miss fills the first invalid
   entry or evicts the last one. *)
let probe t line ~write =
  let s = line land t.set_mask in
  let c = s lsr t.chunk_bits in
  let chunk = t.chunks.(c) in
  let chunk : int array = if chunk != empty then chunk else install t c in
  let base = base t s in
  let last = base + t.ways - 1 in
  t.last_line <- line;
  t.last_chunk <- c;
  t.last_base <- base;
  (* Every entry touched below lies in [base, last], inside [chunk], so
     this per-access path skips the bounds checks. A hit on the front
     entry moves nothing and writes only its dirty bit. *)
  let front = Array.unsafe_get chunk base in
  if front asr 1 = line then begin
    Array.unsafe_set chunk base (front lor Bool.to_int write);
    hit
  end
  else begin
    (* One pass, each entry read once and written once: [old] holds the
       entry the scan last read, which moves up one place over the next
       entry as the scan reads it. The scan stops at the match, the
       first invalid entry or the last entry: the hit, the free entry or
       the victim, whose place the entry before it has now taken.
       [invalid asr 1] never equals a line. *)
    let i = ref base and old = ref front in
    while
      !i < last
      &&
      let e = !old in
      e <> invalid && e asr 1 <> line
    do
      incr i;
      let e = Array.unsafe_get chunk !i in
      Array.unsafe_set chunk !i !old;
      old := e
    done;
    let old = !old in
    if old asr 1 = line then begin
      Array.unsafe_set chunk base (old lor Bool.to_int write);
      hit
    end
    else begin
      Array.unsafe_set chunk base ((line lsl 1) lor Bool.to_int write);
      if old <> invalid && old land 1 = 1 then (old asr 1) lsl t.line_bits
      else miss_clean
    end
  end

(* A probe of the last line is a hit on the remembered set's front
   entry, which stays there: only a probe of that set, which re-points
   the memo, [flush_line] of that line or [invalidate_all] can move it,
   and the last two forget it. [last_chunk] is an index [probe] read
   [chunks] at. *)
let[@inline] access t ~addr ~write =
  let line = addr lsr t.line_bits in
  if line = t.last_line then begin
    if write then begin
      let chunk = Array.unsafe_get t.chunks t.last_chunk in
      Array.unsafe_set chunk t.last_base
        (Array.unsafe_get chunk t.last_base lor 1)
    end;
    hit
  end
  else probe t line ~write

(* Closes the gap at entry [j - 1] of a set that ends before [stop]:
   entry [j] and each valid entry after it move up one place, and the
   place the last of them leaves becomes invalid. It stops at the first
   invalid entry, so the invalid entries after it are neither read nor
   written; each entry it passes is read once and written once. *)
let rec close_gap (chunk : int array) j stop =
  let e = if j < stop then Array.unsafe_get chunk j else invalid in
  Array.unsafe_set chunk (j - 1) e;
  if e <> invalid then close_gap chunk (j + 1) stop

(* Like [probe], reads each entry of the set once, unchecked: every
   index below lies in [base, stop), inside [chunk]. *)
let flush_line t ~addr =
  let line = addr lsr t.line_bits in
  if line = t.last_line then t.last_line <- -1;
  let s = line land t.set_mask in
  let chunk = t.chunks.(s lsr t.chunk_bits) in
  if chunk == empty then false
  else begin
    let base = base t s in
    let stop = base + t.ways in
    (* The scan stops at the match, the first invalid entry or the end
       of the set; [invalid asr 1] never equals a line. *)
    let i = ref base in
    let e = ref (Array.unsafe_get chunk base) in
    while !e <> invalid && !e asr 1 <> line && !i < stop - 1 do
      incr i;
      e := Array.unsafe_get chunk !i
    done;
    if !e asr 1 <> line then false
    else begin
      close_gap chunk (!i + 1) stop;
      !e land 1 = 1
    end
  end

(* Returning every chunk to [empty] is the whole invalidation:
   O(sets / 8) pointer stores. *)
let invalidate_all t =
  t.last_line <- -1;
  Array.fill t.chunks 0 (Array.length t.chunks) empty
