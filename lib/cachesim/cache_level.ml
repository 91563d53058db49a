type stats = { mutable hits : int; mutable misses : int }

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
  stats : stats;
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
    stats = { hits = 0; misses = 0 };
  }

let sets t = t.set_mask + 1
let stats t = t.stats

let reset_stats t =
  t.stats.hits <- 0;
  t.stats.misses <- 0

(* First slot of set [s] in its chunk. *)
let base t s = (s land ((1 lsl t.chunk_bits) - 1)) * t.span

let access t ~addr ~write =
  let line = addr lsr t.line_bits in
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
  t.tick <- t.tick + 1;
  (* Every slot touched below lies in [base, stop), inside [chunk], so
     this per-access path skips the bounds checks. A line is filled only
     on a miss, so it occupies at most one way and the first match is the
     only one; [invalid asr 1] is negative and never equals a line. *)
  let i = ref base in
  while !i < stop && Array.unsafe_get chunk !i asr 1 <> line do
    i := !i + 2
  done;
  let i = !i in
  if i < stop then begin
    Array.unsafe_set chunk (i + 1) t.tick;
    if write then
      Array.unsafe_set chunk i (Array.unsafe_get chunk i lor 1);
    t.stats.hits <- t.stats.hits + 1;
    hit
  end
  else begin
    t.stats.misses <- t.stats.misses + 1;
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
    let old = Array.unsafe_get chunk v in
    Array.unsafe_set chunk v ((line lsl 1) lor Bool.to_int write);
    Array.unsafe_set chunk (v + 1) t.tick;
    if old <> invalid && old land 1 = 1 then (old asr 1) lsl t.line_bits
    else miss_clean
  end

let flush_line t ~addr =
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
let invalidate_all t = Array.fill t.chunks 0 (Array.length t.chunks) empty
