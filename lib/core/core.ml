(** NVMPI: position-independent pointers for (simulated) non-volatile
    memory.

    This library reproduces the system of {e Efficient Support of
    Position Independence on Non-Volatile Memory} (Chen et al.,
    MICRO-50 2017): the off-holder and RIV implicit self-contained
    pointer representations, the baselines they are evaluated against,
    and the simulated NVM machine they run on.

    Typical use:
    {[
      let store = Core.Store.create () in
      let m = Core.Machine.create ~store () in
      let rid = Core.Machine.create_region m ~size:(1 lsl 20) in
      let r = Core.Machine.open_region m rid in
      let (module P) = Core.Repr.m Core.Repr.Off_holder in
      let slot = Core.Region.alloc r 8 in
      let obj = Core.Region.alloc r 64 in
      P.store m ~holder:slot obj;
      assert (P.load m ~holder:slot = obj)
    ]} *)

module Machine = Machine
module Durability = Durability
module Nvspace = Nvspace
module Fat_table = Fat_table
module Repr = Repr
module Repr_sig = Repr_sig
module Normal_ptr = Normal_ptr
module Off_holder = Off_holder
module Riv = Riv
module Fat = Fat
module Fat_cached = Fat_cached
module Based_ptr = Based_ptr
module Swizzle = Swizzle
module Packed_fat = Packed_fat
module Hw_oid = Hw_oid

(** Substrate re-exports, so users need only depend on [core]. *)

module Metrics = Nvmpi_obs.Metrics
module Json = Nvmpi_obs.Json
module Layout = Nvmpi_addr.Layout
module Kinds = Nvmpi_addr.Kinds
module Two_level = Nvmpi_addr.Two_level
module Bitops = Nvmpi_addr.Bitops
module Memsim = Nvmpi_memsim.Memsim
module Clock = Nvmpi_cachesim.Clock
module Timing = Nvmpi_cachesim.Timing
module Timing_config = Nvmpi_cachesim.Timing_config
module Cache_level = Nvmpi_cachesim.Cache_level
module Store = Nvmpi_nvregion.Store
module Region = Nvmpi_nvregion.Region
module Manager = Nvmpi_nvregion.Manager
module Freelist = Nvmpi_alloc.Freelist
