(* Storage is allocated on first fill, one chunk of consecutive sets at a
   time, so a run pays for the chunks it touches and not for the
   modelled capacity (docs/PERF.md, "Cache-level storage"). A set is
   [span = 2 * ways] ints of its chunk: slot [2w] is way [w]'s packed
   word [(line lsl 1) lor dirty], or [invalid]; slot [2w + 1] is its LRU
   stamp. *)
type t = {
  line_bits : int;
  set_mask : int;
  chunk_bits : int; (* log2 of the sets per chunk *)
  span : int;
  chunks : int array array; (* [empty] until one of its sets fills *)
  mutable tick : int;
  (* The line of the last access, resident at slot [last_slot] of chunk
     [last_chunk]; -1 when forgotten. Indices, not the chunk itself:
     storing a pointer would cost a write barrier on every probe. *)
  mutable last_line : int;
  mutable last_chunk : int;
  mutable last_slot : int;
}

(* Eight sets per chunk keep the chunk table of the default 32 MiB L3 at
   4 Ki words, small enough to stay in the host's caches; with one entry
   per set (32 Ki words) the table lookup missed there on large working
   sets. A chunk of that 16-way L3 is 256 ints, the largest block the
   minor heap takes. *)
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
    span = 2 * ways;
    chunks = Array.make (sets lsr chunk_bits) empty;
    tick = 0;
    last_line = -1;
    last_chunk = 0;
    last_slot = 0;
  }

let sets t = t.set_mask + 1

(* First slot of set [s] in its chunk. *)
let base t s = (s land ((1 lsl t.chunk_bits) - 1)) * t.span

(* A hit on the way found at slot [i] of [chunk]. *)
let[@inline] hit_at t chunk i ~write =
  Array.unsafe_set chunk (i + 1) t.tick;
  if write then Array.unsafe_set chunk i (Array.unsafe_get chunk i lor 1);
  hit

(* Looks [line] up in its set; on a miss, fills it over the victim.
   Either way [line] is left resident at the remembered slot. *)
let probe t line ~write =
  let s = line land t.set_mask in
  let c = s lsr t.chunk_bits in
  let chunk = t.chunks.(c) in
  let chunk =
    if chunk != empty then chunk
    else begin
      let chunk = Array.make (t.span lsl t.chunk_bits) invalid in
      t.chunks.(c) <- chunk;
      chunk
    end
  in
  let base = base t s in
  let stop = base + t.span in
  (* Every slot touched below lies in [base, stop), inside [chunk], so
     this per-access path skips the bounds checks. A line is filled only
     on a miss, so it occupies at most one way and the first match is the
     only one; [invalid asr 1] is negative and never equals a line. *)
  let i = ref base in
  while !i < stop && Array.unsafe_get chunk !i asr 1 <> line do
    i := !i + 2
  done;
  let i = !i in
  t.last_line <- line;
  t.last_chunk <- c;
  if i < stop then begin
    t.last_slot <- i;
    hit_at t chunk i ~write
  end
  else begin
    (* The victim is the first invalid way, else the least recently
       used. [tick] advances on every access, so valid ways carry
       distinct stamps and the LRU way is unique. *)
    let v = ref (-1) and best = ref base and best_stamp = ref max_int in
    let j = ref base in
    while !v < 0 && !j < stop do
      if Array.unsafe_get chunk !j = invalid then v := !j
      else if Array.unsafe_get chunk (!j + 1) < !best_stamp then begin
        best := !j;
        best_stamp := Array.unsafe_get chunk (!j + 1)
      end;
      j := !j + 2
    done;
    let v = if !v >= 0 then !v else !best in
    t.last_slot <- v;
    let old = Array.unsafe_get chunk v in
    Array.unsafe_set chunk v ((line lsl 1) lor Bool.to_int write);
    Array.unsafe_set chunk (v + 1) t.tick;
    if old <> invalid && old land 1 = 1 then (old asr 1) lsl t.line_bits
    else miss_clean
  end

(* A probe of the last line is a hit at the remembered slot: only a miss
   in its set, which re-points [last_line], [flush_line] or
   [invalidate_all] can displace that line, and the last two forget it.
   [last_chunk] is an index [probe] read [chunks] at. *)
let[@inline] access t ~addr ~write =
  let line = addr lsr t.line_bits in
  t.tick <- t.tick + 1;
  if line = t.last_line then
    hit_at t (Array.unsafe_get t.chunks t.last_chunk) t.last_slot ~write
  else probe t line ~write

let flush_line t ~addr =
  t.last_line <- -1;
  let line = addr lsr t.line_bits in
  let s = line land t.set_mask in
  let chunk = t.chunks.(s lsr t.chunk_bits) in
  if chunk == empty then false
  else begin
    let base = base t s in
    let stop = base + t.span in
    let i = ref base in
    while !i < stop && chunk.(!i) asr 1 <> line do
      i := !i + 2
    done;
    if !i = stop then false
    else begin
      let dirty = chunk.(!i) land 1 = 1 in
      chunk.(!i) <- invalid;
      dirty
    end
  end

(* Nothing reads an invalid way's stamp, so returning every chunk to
   [empty] is the whole invalidation: O(sets / 8) pointer stores. *)
let invalidate_all t =
  t.last_line <- -1;
  Array.fill t.chunks 0 (Array.length t.chunks) empty
