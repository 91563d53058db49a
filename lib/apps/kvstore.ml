module Machine = Core.Machine
module Region = Nvmpi_nvregion.Region
module Memsim = Nvmpi_memsim.Memsim
module Objstore = Nvmpi_tx.Objstore
module Tx = Nvmpi_tx.Tx
module Repr = Core.Repr
module Vaddr = Nvmpi_addr.Kinds.Vaddr
module Bitops = Nvmpi_addr.Bitops

let kind_tag = 0x4B56 (* "KV" *)

(* Meta block: [kind | buckets | table-offset | reserved].
   Index entry: [next-slot | key (8) | value-slot]; the value slot
   points at a [length | bytes] object. *)

type t = {
  os : Objstore.t;
  tx : Tx.t;
  repr : Repr.kind;
  meta : Vaddr.t;
  table : Vaddr.t;
  buckets : int;
  write_path : [ `Tx | `Plain ];
}

let machine t = Objstore.machine t.os
let memory t = (machine t).Machine.mem
let slot t = Repr.slot_size t.repr

let load_slot t holder =
  let (module P : Core.Repr_sig.S) = Repr.m t.repr in
  P.load (machine t) ~holder

let store_slot_raw t holder target =
  let (module P : Core.Repr_sig.S) = Repr.m t.repr in
  P.store (machine t) ~holder target

(* Index mutations are undo-logged before the representation writes the
   slot, so an interrupted transaction restores the previous encoding
   whatever the representation. Under the [`Plain] write path (snapshot
   durability, docs/SNAPSHOT.md) the store is un-instrumented: epochs
   are made durable wholesale by [Snapshot.sync], not per mutation. *)
let store_slot_tx t holder target =
  if t.write_path = `Tx then Tx.add_range t.tx ~addr:holder ~len:(slot t);
  store_slot_raw t holder target

(* Objects allocated inside the current transaction are filled with
   plain stores; register their whole wrapped block so the commit
   flushes them — a committed pointer must never reference bytes that
   were still sitting in the cache when power failed. *)
let tx_fresh t payload ~size =
  if Tx.active t.tx then
    Tx.add_fresh t.tx
      ~addr:(Vaddr.add payload (-Objstore.header_bytes))
      ~len:(Bitops.align_up (Objstore.header_bytes + size) Objstore.wrap_unit)

let next_off = 0
let key_off t = slot t
let val_off t = slot t + 8
let entry_size t = (2 * slot t) + 8

let bucket_holder t i = Vaddr.add t.table (i * slot t)

let hash t ~key =
  Machine.alu (machine t) 4;
  let h = key * 0x2545F4914F6CDD1 in
  (h lxor (h lsr 31)) land max_int mod t.buckets

(* The default follows the machine's discipline: a snapshot machine
   takes the plain path. *)
let default_write_path os =
  match (Objstore.machine os).Machine.durability with
  | Core.Durability.Snapshot _ -> `Plain
  | Eager | Traverse -> `Tx

let create os ~repr ~name ?(buckets = 256) ?write_path () =
  if buckets <= 0 then invalid_arg "Kvstore.create: buckets";
  let write_path =
    match write_path with Some w -> w | None -> default_write_path os
  in
  let machine = Objstore.machine os in
  let region = Objstore.region os in
  let meta = Objstore.alloc os ~tag:kind_tag ~size:32 () in
  let table =
    Objstore.alloc os ~tag:kind_tag ~size:(buckets * Repr.slot_size repr) ()
  in
  let t = { os; tx = Tx.create os; repr; meta; table; buckets; write_path } in
  Machine.store64_fast machine meta kind_tag;
  Machine.store64_fast machine (Vaddr.add meta 8) buckets;
  Machine.store64_fast machine (Vaddr.add meta 16)
    (Vaddr.offset_in table ~base:(Region.base region));
  Machine.store64_fast machine (Vaddr.add meta 24) 0;
  for i = 0 to buckets - 1 do
    store_slot_raw t (bucket_holder t i) Vaddr.null
  done;
  Region.set_root region ~tag:kind_tag name meta;
  t

let attach ?write_path os ~repr ~name =
  let write_path =
    match write_path with Some w -> w | None -> default_write_path os
  in
  let machine = Objstore.machine os in
  let region = Objstore.region os in
  match Region.root region name with
  | None -> failwith (Printf.sprintf "Kvstore.attach: no root %S" name)
  | Some meta ->
      if Machine.load64_fast machine meta <> kind_tag then
        failwith "Kvstore.attach: root is not a key-value store";
      let buckets = Machine.load64_fast machine (Vaddr.add meta 8) in
      let table =
        Vaddr.add (Region.base region)
          (Machine.load64_fast machine (Vaddr.add meta 16))
      in
      { os; tx = Tx.create os; repr; meta; table; buckets; write_path }

(* Locate the entry for [key]: [`Found (prev_holder, entry)] or
   [`Missing last_holder]. *)
let locate t ~key =
  let rec go holder =
    let entry = load_slot t holder in
    if Vaddr.is_null entry then `Missing holder
    else begin
      Objstore.touch_read t.os;
      if Machine.load64_fast (machine t) (Vaddr.add entry (key_off t)) = key
      then
        `Found (holder, entry)
      else go (Vaddr.add entry next_off)
    end
  in
  go (bucket_holder t (hash t ~key))

let read_value t entry =
  let v = load_slot t (Vaddr.add entry (val_off t)) in
  if Vaddr.is_null v then ""
  else
    let len = Machine.load64_fast (machine t) v in
    Bytes.to_string
      (Memsim.blit_to_bytes (memory t) ~addr:(Vaddr.add v 8) ~len)

let alloc_value t data =
  let len = String.length data in
  let v = Objstore.alloc t.os ~tag:kind_tag ~size:(8 + len) () in
  tx_fresh t v ~size:(8 + len);
  Machine.store64_fast (machine t) v len;
  if len > 0 then
    Memsim.blit_from_bytes (memory t) ~addr:(Vaddr.add v 8)
      (Bytes.of_string data);
  v

let put_body t ~key data =
  let fresh_value = alloc_value t data in
  match locate t ~key with
  | `Found (_, entry) ->
      let old = load_slot t (Vaddr.add entry (val_off t)) in
      store_slot_tx t (Vaddr.add entry (val_off t)) fresh_value;
      old
  | `Missing holder ->
      let entry = Objstore.alloc t.os ~tag:kind_tag ~size:(entry_size t) () in
      tx_fresh t entry ~size:(entry_size t);
      store_slot_raw t (Vaddr.add entry next_off) Vaddr.null;
      Machine.store64_fast (machine t) (Vaddr.add entry (key_off t)) key;
      store_slot_raw t (Vaddr.add entry (val_off t)) fresh_value;
      store_slot_tx t holder entry;
      Vaddr.null

let put t ~key data =
  match t.write_path with
  | `Tx ->
      Tx.begin_tx t.tx;
      let old = put_body t ~key data in
      Tx.commit t.tx;
      (* Reclaim the replaced value only after the commit is durable. *)
      if not (Vaddr.is_null old) then Objstore.free t.os old
  | `Plain ->
      (* Snapshot mode: plain stores throughout, immediate reclamation —
         the whole epoch (index, values, allocator words) becomes
         durable atomically at the next sync, so intra-epoch ordering
         carries no durability obligations. *)
      let old = put_body t ~key data in
      if not (Vaddr.is_null old) then Objstore.free t.os old

let write_path t = t.write_path

let simulate_crash_during_put t ~key data =
  if t.write_path <> `Tx then
    invalid_arg "Kvstore.simulate_crash_during_put: plain write path";
  Tx.begin_tx t.tx;
  ignore (put_body t ~key data);
  Tx.simulate_crash t.tx

let delete t ~key =
  match locate t ~key with
  | `Missing _ -> false
  | `Found (prev_holder, entry) ->
      if t.write_path = `Tx then Tx.begin_tx t.tx;
      let next = load_slot t (Vaddr.add entry next_off) in
      store_slot_tx t prev_holder next;
      if t.write_path = `Tx then Tx.commit t.tx;
      let v = load_slot t (Vaddr.add entry (val_off t)) in
      if not (Vaddr.is_null v) then Objstore.free t.os v;
      Objstore.free t.os entry;
      true

let get t ~key =
  match locate t ~key with
  | `Missing _ -> None
  | `Found (_, entry) -> Some (read_value t entry)

let mem t ~key = match locate t ~key with `Found _ -> true | `Missing _ -> false

let iter t f =
  for i = 0 to t.buckets - 1 do
    let rec go holder =
      let entry = load_slot t holder in
      if Vaddr.is_null entry then ()
      else begin
        f ~key:(Machine.load64_fast (machine t) (Vaddr.add entry (key_off t)))
          ~value:(read_value t entry);
        go (Vaddr.add entry next_off)
      end
    in
    go (bucket_holder t i)
  done

let size t =
  let n = ref 0 in
  iter t (fun ~key:_ ~value:_ -> incr n);
  !n

let keys t =
  let out = ref [] in
  iter t (fun ~key ~value:_ -> out := key :: !out);
  List.sort compare !out
