type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Encoding --------------------------------------------------------- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Shortest representation that still reads back equal; a trailing ".0"
   keeps integral floats from decoding as [Int]. *)
let float_literal f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> "null"
  | _ ->
    let s = Printf.sprintf "%.12g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let to_string ?(compact = false) v =
  let buf = Buffer.create 256 in
  let indent level = Buffer.add_string buf (String.make (2 * level) ' ') in
  let sep level =
    if compact then ()
    else begin
      Buffer.add_char buf '\n';
      indent level
    end
  in
  let rec write level = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float f -> Buffer.add_string buf (float_literal f)
    | String s -> escape buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            sep (level + 1);
            write (level + 1) item)
          items;
        sep level;
        Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            sep (level + 1);
            escape buf k;
            Buffer.add_string buf (if compact then ":" else ": ");
            write (level + 1) item)
          fields;
        sep level;
        Buffer.add_char buf '}'
  in
  write 0 v;
  Buffer.contents buf

let to_file path v =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (to_string v);
      Out_channel.output_char oc '\n')

(* Parsing ---------------------------------------------------------- *)

exception Error_at of int * string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let err msg = raise (Error_at (!pos, msg)) in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else err (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else err (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then err "truncated \\u escape";
    let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
    match v with
    | Some v ->
        pos := !pos + 4;
        v
    | None -> err "malformed \\u escape"
  in
  let add_utf8 buf cp =
    (* Encodes one Unicode scalar value. *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then err "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then err "unterminated escape";
          (match s.[!pos] with
          | '"' -> incr pos; Buffer.add_char buf '"'
          | '\\' -> incr pos; Buffer.add_char buf '\\'
          | '/' -> incr pos; Buffer.add_char buf '/'
          | 'b' -> incr pos; Buffer.add_char buf '\b'
          | 'f' -> incr pos; Buffer.add_char buf '\012'
          | 'n' -> incr pos; Buffer.add_char buf '\n'
          | 'r' -> incr pos; Buffer.add_char buf '\r'
          | 't' -> incr pos; Buffer.add_char buf '\t'
          | 'u' ->
              incr pos;
              let cp = hex4 () in
              let cp =
                (* Surrogate pair: combine if the low half follows. *)
                if cp >= 0xD800 && cp <= 0xDBFF
                   && !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                  else err "unpaired surrogate"
                end
                else cp
              in
              add_utf8 buf cp
          | c -> err (Printf.sprintf "bad escape '\\%c'" c));
          loop ()
      | c ->
          incr pos;
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if !pos < n && s.[!pos] = '-' then incr pos;
    let digits () =
      let d0 = !pos in
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
      if !pos = d0 then err "expected digit"
    in
    digits ();
    let is_float = ref false in
    if !pos < n && s.[!pos] = '.' then begin
      is_float := true;
      incr pos;
      digits ()
    end;
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      is_float := true;
      incr pos;
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then incr pos;
      digits ()
    end;
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some v -> Int v
      | None -> Float (float_of_string text)
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then err "unexpected end of input";
    match s.[!pos] with
    | '{' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec fields acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            if !pos >= n then err "unterminated object"
            else if s.[!pos] = ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              List.rev ((k, v) :: acc)
            end
          in
          Obj (fields [])
    | '[' ->
        incr pos;
        skip_ws ();
        if !pos < n && s.[!pos] = ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let v = value () in
            skip_ws ();
            if !pos >= n then err "unterminated array"
            else if s.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              List.rev (v :: acc)
            end
          in
          List (items [])
    | '"' -> String (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> err (Printf.sprintf "unexpected character '%c'" c)
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then err "trailing input";
    v
  with
  | v -> Ok v
  | exception Error_at (at, msg) ->
      Error (Printf.sprintf "JSON parse error at byte %d: %s" at msg)

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

(* Accessors -------------------------------------------------------- *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let as_int = function
  | Int n -> Some n
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let as_float = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let as_string = function String s -> Some s | _ -> None
let as_bool = function Bool b -> Some b | _ -> None
let as_list = function List l -> Some l | _ -> None
