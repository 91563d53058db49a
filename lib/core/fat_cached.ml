(** Fat pointers with the one-entry software cache of Section 6.3: two
    globals, [lastID] and [lastAddr], short-circuit the hashtable lookup
    when consecutive dereferences hit the same region. Effective with a
    single region; defeated when accesses alternate between regions. *)

module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Rid = K.Rid

let name = "fat-cached"
let slot_size = 16
let cross_region = true
let position_independent = true

let store m ~holder target =
  Machine.bump m Machine.Cell.fat_cached_stores "repr.fat-cached.stores";
  Fat.store_into m ~holder target

let load m ~holder =
  Machine.bump m Machine.Cell.fat_cached_loads "repr.fat-cached.loads";
  let rid = Machine.load64 m holder in
  if rid = 0 then begin
    Fat_table.charge_null_lookup m.Machine.fat;
    Vaddr.null
  end
  else begin
    let offset = Machine.load64 m (Vaddr.add holder 8) in
    let last_id = Machine.load64 m (Machine.lastid_addr m) in
    Machine.alu m 1;
    let base =
      if last_id = rid then begin
        Machine.bump m Machine.Cell.fat_cache_hits "fat.cache_hits";
        Vaddr.v (Machine.load64 m (Machine.lastaddr_addr m))
      end
      else begin
        Machine.bump m Machine.Cell.fat_cache_misses "fat.cache_misses";
        let b = Fat_table.lookup m.Machine.fat (Rid.v rid) in
        Machine.store64 m (Machine.lastid_addr m) rid;
        Machine.store64 m (Machine.lastaddr_addr m) (b :> int);
        b
      end
    in
    Machine.alu m 1;
    Vaddr.add base offset
  end
