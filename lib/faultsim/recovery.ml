module Machine = Core.Machine
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Metrics = Nvmpi_obs.Metrics
module Rid = Nvmpi_addr.Kinds.Rid

let store_of_images images =
  let store = Store.create () in
  List.iter (fun (rid, img) -> Store.add_image store ~rid img) images;
  store

let boot ?metrics ~seed images =
  let store = store_of_images images in
  let machine = Machine.create ?metrics ~seed ~store () in
  let regions =
    List.map (fun (rid, _) -> (rid, Machine.open_region machine rid)) images
  in
  (machine, regions)
