(* Durability state machine for one tracked region.

   Three byte populations, mirroring the cachesim's line granularity:
   - durable: in [image]; only fences move bytes here;
   - staged: flushed out of the cache but not yet fenced — a full-line
     snapshot taken at flush time waits in [staged];
   - dirty: stored but neither flushed nor fenced; tracked as per-line
     byte masks (store events fire before the data lands in the
     simulated memory, so only positions are known here — values are
     captured by the line snapshot when a flush arrives).

   The durable image is page-sparse: a page absent at arm time stays
   absent, reading as zeros, until a fence lands a line on it.

   Deliberate simplification (documented in docs/FAULTSIM.md): cache
   evictions are NOT treated as durable. A dirty line evicted from L3
   does reach NVM in the timing model, but whether it does by a given
   crash point depends on cache pressure; treating evictions as
   non-durable makes the durable image the guaranteed-persisted lower
   bound, which is the set recovery may rely on. *)

module Page_image = Nvmpi_memsim.Memsim.Page_image

type t = {
  base : int;
  size : int;
  line : int;
  image : Page_image.t;
  dirty : (int, Bytes.t) Hashtbl.t; (* line start -> byte presence mask *)
  staged : (int, Bytes.t * int) Hashtbl.t; (* snap lo -> (snap, fresh bytes) *)
  mutable durable_total : int;
}

let create ~base ~line ~init =
  {
    base;
    size = Page_image.size init;
    line;
    image = Page_image.copy init;
    dirty = Hashtbl.create 64;
    staged = Hashtbl.create 64;
    durable_total = 0;
  }

let base t = t.base
let image t = Page_image.copy t.image
let durable_bytes t = t.durable_total

let mask_count m =
  Bytes.fold_left (fun acc c -> if c = '\000' then acc else acc + 1) 0 m

let volatile_bytes t =
  Hashtbl.fold (fun _ m acc -> acc + mask_count m) t.dirty 0
  + Hashtbl.fold (fun _ (_, c) acc -> acc + c) t.staged 0

let pending_lines t =
  let lines = Hashtbl.create 16 in
  Hashtbl.iter (fun l _ -> Hashtbl.replace lines l ()) t.dirty;
  Hashtbl.iter
    (fun lo _ -> Hashtbl.replace lines (lo land lnot (t.line - 1)) ())
    t.staged;
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) lines [])

let reset_volatile t =
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.staged

let apply t (e : Events.t) =
  match e with
  | Events.Store { addr; size } ->
      let lo = max addr t.base and hi = min (addr + size) (t.base + t.size) in
      let a = ref lo in
      while !a < hi do
        let lstart = !a land lnot (t.line - 1) in
        let m =
          match Hashtbl.find_opt t.dirty lstart with
          | Some m -> m
          | None ->
              let m = Bytes.make t.line '\000' in
              Hashtbl.add t.dirty lstart m;
              m
        in
        let stop = min hi (lstart + t.line) in
        for b = !a to stop - 1 do
          Bytes.set m (b - lstart) '\001'
        done;
        a := stop
      done
  | Events.Flush { lo; snap } ->
      let len = Bytes.length snap in
      if lo < t.base + t.size && lo + len > t.base then begin
        let lstart = lo land lnot (t.line - 1) in
        let fresh =
          match Hashtbl.find_opt t.dirty lstart with
          | Some m ->
              Hashtbl.remove t.dirty lstart;
              mask_count m
          | None -> 0
        in
        let carried =
          match Hashtbl.find_opt t.staged lo with
          | Some (_, c) -> c
          | None -> 0
        in
        (* Newer snapshot supersedes an unfenced older one of the line. *)
        Hashtbl.replace t.staged lo (Bytes.copy snap, carried + fresh)
      end
  | Events.Fence ->
      Hashtbl.iter
        (fun lo (snap, c) ->
          Page_image.blit_from_bytes snap 0 t.image (lo - t.base)
            (Bytes.length snap);
          t.durable_total <- t.durable_total + c)
        t.staged;
      Hashtbl.reset t.staged
