(** Boots a fresh run from a crashed-region image set.

    The crash image becomes the canonical store blob of a brand-new
    {!Nvmpi_nvregion.Store.t}, handed over without a copy; a fresh
    machine (seeded, so region placement is reproducible yet different
    per crash point) opens each region at a freshly randomized segment
    — recovery must therefore survive both the byte-level truncation to
    durable state {e and} the remap, which is exactly the paper's
    position-independence claim. *)

val store_of_images :
  (Nvmpi_addr.Kinds.Rid.t * Nvmpi_memsim.Memsim.Page_image.t) list ->
  Nvmpi_nvregion.Store.t
(** A store whose blobs are exactly the given [(rid, image)]s; it takes
    the images over. *)

val boot :
  ?metrics:Nvmpi_obs.Metrics.t ->
  seed:int ->
  (Nvmpi_addr.Kinds.Rid.t * Nvmpi_memsim.Memsim.Page_image.t) list ->
  Core.Machine.t * (Nvmpi_addr.Kinds.Rid.t * Nvmpi_nvregion.Region.t) list
(** Builds the store, creates a machine over it and opens every region
    (validating region headers — a corrupted durable header surfaces
    here as [Failure]). *)
