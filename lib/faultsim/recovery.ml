module Machine = Core.Machine
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Metrics = Nvmpi_obs.Metrics
module Rid = Nvmpi_addr.Kinds.Rid
module Page_image = Nvmpi_memsim.Memsim.Page_image

let store_of_images images =
  let store = Store.create () in
  List.iter (fun (rid, img) -> Store.add_image store ~rid img) images;
  store

(* The machine maps each image in place, so it gets a copy: recovery
   writes, and the caller's images (a replay's, at the next point too)
   must stay as they are. *)
let boot ?metrics ~seed images =
  let store =
    store_of_images
      (List.map (fun (rid, img) -> (rid, Page_image.copy img)) images)
  in
  let machine = Machine.create ?metrics ~seed ~store () in
  let regions =
    List.map (fun (rid, _) -> (rid, Machine.open_region machine rid)) images
  in
  (machine, regions)
