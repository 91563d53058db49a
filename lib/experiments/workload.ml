let shuffle a ~seed =
  let st = Random.State.make [| seed; 0x5487 |] in
  let b = Array.copy a in
  for i = Array.length b - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = b.(i) in
    b.(i) <- b.(j);
    b.(j) <- t
  done;
  b

let keys ~n ~seed =
  let st = Random.State.make [| seed; 0x11C5 |] in
  let seen = Hashtbl.create n in
  let out = Array.make n 0 in
  let i = ref 0 in
  while !i < n do
    let k = 1 + Random.State.int st 0x3FFF_FFFF in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      out.(!i) <- k;
      incr i
    end
  done;
  out

let search_sample ~keys ~n ~seed =
  let st = Random.State.make [| seed; 0x9DB3 |] in
  Array.init n (fun _ -> keys.(Random.State.int st (Array.length keys)))

(* Total injective mapping from positive keys to lowercase words: the
   key's base-26 digit string. (Distinct from the wordcount encoding,
   which is only defined on strings it produced.) *)
let key_word k =
  if k <= 0 then invalid_arg "Workload.key_word";
  let b = Buffer.create 8 in
  let rec go k =
    if k > 0 then begin
      go (k / 26);
      Buffer.add_char b (Char.chr (Char.code 'a' + (k mod 26)))
    end
  in
  go k;
  Buffer.contents b
