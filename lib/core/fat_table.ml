module Memsim = Nvmpi_memsim.Memsim
module Timing = Nvmpi_cachesim.Timing
module Layout = Nvmpi_addr.Layout
module Bitops = Nvmpi_addr.Bitops
module K = Nvmpi_addr.Kinds
module Vaddr = K.Vaddr
module Rid = K.Rid
module Metrics = Nvmpi_obs.Metrics

type t = {
  mem : Memsim.t;
  timing : Timing.t;
  layout : Layout.t;
  table_base : int;
  slots : int;
  list_base : int;
  list_cap : int;
  mutable count : int;
  mutable list_len : int;
  c_lookups : int ref;
  c_probe_loads : int ref;
  c_null_lookups : int ref;
  c_reverse_lookups : int ref;
  c_reverse_steps : int ref;
}

exception Unknown_region of { rid : Rid.t }
exception No_region_for_addr of { addr : Vaddr.t }

let empty_key = 0
let tombstone = -1

(* The hashtable lives behind a library entry point (PMEM.IO's
   pmemobj_direct and friends): a dereference pays the call, argument
   validation and hashing before the first probe. *)
let lookup_call_overhead = 62
let null_check_overhead = 2 (* OID_IS_NULL is an inlined two-field test *)
let reverse_call_overhead = 40

let create ~mem ~timing ~layout ~metrics ~table_base:(table_base : Vaddr.t)
    ~slots ~list_base:(list_base : Vaddr.t) ~list_cap =
  let table_base = (table_base :> int) and list_base = (list_base :> int) in
  if not (Bitops.is_pow2 slots) then invalid_arg "Fat_table.create: slots";
  { mem; timing; layout; table_base; slots; list_base; list_cap;
    count = 0; list_len = 0;
    c_lookups = Metrics.counter metrics "fat.lookups";
    c_probe_loads = Metrics.counter metrics "fat.probe_loads";
    c_null_lookups = Metrics.counter metrics "fat.null_lookups";
    c_reverse_lookups = Metrics.counter metrics "fat.reverse_lookups";
    c_reverse_steps = Metrics.counter metrics "fat.reverse_steps" }

let count t = t.count

(* Both structures live in simulated DRAM; slot indices become typed
   addresses here, at the point they hit the memory. *)
let slot_addr t i = Vaddr.v (t.table_base + (i * 16))
let list_addr t i = Vaddr.v (t.list_base + (i * 16))

(* Fibonacci hashing; charged as the handful of ALU ops a real hash
   function costs. *)
let hash t rid =
  Timing.alu t.timing 6;
  let h = rid * 0x2545F4914F6CDD1 in
  let h = h lxor (h lsr 29) in
  h land max_int land (t.slots - 1)

let put t ~rid:(rid : Rid.t) ~base:(base : Vaddr.t) =
  let rid = (rid :> int) and base = (base :> int) in
  if rid <= 0 then invalid_arg "Fat_table.put: bad rid";
  if t.count * 2 >= t.slots then failwith "Fat_table.put: table full";
  let rec probe i steps =
    if steps > t.slots then failwith "Fat_table.put: no slot"
    else
      let k = Memsim.load64 t.mem (slot_addr t i) in
      if k = empty_key || k = tombstone || k = rid then i
      else probe ((i + 1) land (t.slots - 1)) (steps + 1)
  in
  let i = probe (hash t rid) 0 in
  let fresh = Memsim.load64 t.mem (slot_addr t i) <> rid in
  Memsim.store64 t.mem (slot_addr t i) rid;
  Memsim.store64 t.mem (Vaddr.add (slot_addr t i) 8) base;
  if fresh then t.count <- t.count + 1;
  (* Sorted-by-base insertion into the region list. *)
  if t.list_len >= t.list_cap then failwith "Fat_table.put: region list full";
  let pos = ref t.list_len in
  (try
     for j = 0 to t.list_len - 1 do
       if Memsim.load64 t.mem (list_addr t j) > base then begin
         pos := j;
         raise Exit
       end
     done
   with Exit -> ());
  for j = t.list_len - 1 downto !pos do
    Memsim.store64 t.mem (list_addr t (j + 1)) (Memsim.load64 t.mem (list_addr t j));
    Memsim.store64 t.mem
      (Vaddr.add (list_addr t (j + 1)) 8)
      (Memsim.load64 t.mem (Vaddr.add (list_addr t j) 8))
  done;
  Memsim.store64 t.mem (list_addr t !pos) base;
  Memsim.store64 t.mem (Vaddr.add (list_addr t !pos) 8) rid;
  t.list_len <- t.list_len + 1

let remove t ~rid:(rid : Rid.t) =
  let rid = (rid :> int) in
  let rec probe i steps =
    if steps > t.slots then ()
    else
      let k = Memsim.load64 t.mem (slot_addr t i) in
      if k = rid then begin
        Memsim.store64 t.mem (slot_addr t i) tombstone;
        t.count <- t.count - 1
      end
      else if k = empty_key then ()
      else probe ((i + 1) land (t.slots - 1)) (steps + 1)
  in
  probe (hash t rid) 0;
  (* Delete from the region list. *)
  let pos = ref (-1) in
  for j = 0 to t.list_len - 1 do
    if !pos < 0 && Memsim.load64 t.mem (Vaddr.add (list_addr t j) 8) = rid then pos := j
  done;
  if !pos >= 0 then begin
    for j = !pos to t.list_len - 2 do
      Memsim.store64 t.mem (list_addr t j) (Memsim.load64 t.mem (list_addr t (j + 1)));
      Memsim.store64 t.mem (Vaddr.add (list_addr t j) 8)
        (Memsim.load64 t.mem (Vaddr.add (list_addr t (j + 1)) 8))
    done;
    t.list_len <- t.list_len - 1
  end

(* Fused table load: same contract as Nvspace's —
   Fat_table is only constructed by [Machine.create], where [timing] is
   the memory's observer 0, so under [solo_observed] the fused load plus
   a direct single-line charge equals the generic observed load. Used
   on the hot read paths (probe loop, reverse binary search); the cold
   put/remove paths keep the generic accessors. *)
let[@inline] table_load64 t a =
  if Memsim.solo_observed t.mem then begin
    let v = Memsim.load64_fused t.mem a in
    Timing.access_line t.timing ~addr:(a : Vaddr.t :> int) ~write:false;
    v
  end
  else Memsim.load64 t.mem a

let charge_null_lookup t =
  incr t.c_null_lookups;
  Timing.alu t.timing null_check_overhead

let lookup t (rid : Rid.t) =
  incr t.c_lookups;
  Timing.alu t.timing lookup_call_overhead;
  let rec probe i steps =
    if steps > t.slots then raise (Unknown_region { rid })
    else begin
      Timing.alu t.timing 1;
      incr t.c_probe_loads;
      let k = table_load64 t (slot_addr t i) in
      if k = (rid :> int) then
        Vaddr.v (table_load64 t (Vaddr.add (slot_addr t i) 8))
      else if k = empty_key then raise (Unknown_region { rid })
      else probe ((i + 1) land (t.slots - 1)) (steps + 1)
    end
  in
  probe (hash t (rid :> int)) 0

let rid_of_addr t (a : Vaddr.t) =
  incr t.c_reverse_lookups;
  Timing.alu t.timing reverse_call_overhead;
  (* getBase (Figure 8's persistentX-encode helper) names the segment
     the binary search compares region bases against. *)
  let seg = (K.base_of_vaddr t.layout a :> int) in
  Timing.alu t.timing 1;
  let lo = ref 0 and hi = ref (t.list_len - 1) and found = ref (-1) in
  while !lo <= !hi && !found < 0 do
    incr t.c_reverse_steps;
    Timing.alu t.timing 2;
    let mid = (!lo + !hi) / 2 in
    let base = table_load64 t (list_addr t mid) in
    if base = seg then
      found := table_load64 t (Vaddr.add (list_addr t mid) 8)
    else if base < seg then lo := mid + 1
    else hi := mid - 1
  done;
  if !found < 0 then raise (No_region_for_addr { addr = a })
  else Rid.v !found
