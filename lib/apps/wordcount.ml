module Repr = Core.Repr
module Bstree = Nvmpi_structures.Bstree
module Node = Nvmpi_structures.Node

type result = { distinct : int; total : int }

let max_word_len = 12

let key_of_word w =
  let n = String.length w in
  if n = 0 || n > max_word_len then
    invalid_arg "Wordcount.key_of_word: word length";
  let k = ref 0 in
  String.iter
    (fun c ->
      let d = Char.code c - Char.code 'a' in
      if d < 0 || d > 25 then
        invalid_arg "Wordcount.key_of_word: words must be lowercase a-z";
      k := (!k * 27) + d + 1)
    w;
  !k

let word_of_key k =
  let b = Buffer.create 8 in
  let rec go k =
    if k > 0 then begin
      go (k / 27);
      Buffer.add_char b (Char.chr (Char.code 'a' + (k mod 27) - 1))
    end
  in
  go k;
  Buffer.contents b

(* Reading a word from the input file, tokenizing it and encoding the
   key is real work the paper's application performs per word (the input
   is a file on disk); charged as ALU cycles proportional to the word
   length. *)
let per_word_cost w = 40 + (30 * String.length w)

let count_words node ~repr ~name stream =
  let (module P : Core.Repr_sig.S) = Repr.m repr in
  let module B = Bstree.Make (P) in
  let machine = node.Node.machine in
  let t =
    match Nvmpi_nvregion.Region.root (Node.home_region node) name with
    | None -> B.create node ~name
    | Some _ -> B.attach node ~name
  in
  Array.iter
    (fun w ->
      Core.Machine.alu machine (per_word_cost w);
      B.insert_count t ~key:(key_of_word w))
    stream;
  { distinct = B.size t; total = Array.length stream }

let lookup node ~repr ~name w =
  let (module P : Core.Repr_sig.S) = Repr.m repr in
  let module B = Bstree.Make (P) in
  let t = B.attach node ~name in
  B.count t ~key:(key_of_word w)

let counts node ~repr ~name =
  let (module P : Core.Repr_sig.S) = Repr.m repr in
  let module B = Bstree.Make (P) in
  let t = B.attach node ~name in
  let out = ref [] in
  B.iter t (fun ~addr:_ ~key -> out := key :: !out);
  List.rev_map (fun k -> (word_of_key k, B.count t ~key:k)) !out
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
