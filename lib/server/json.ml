type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

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

(* The C primitive behind [Printf]'s [%g] and [%f] conversions, called
   with the format strings [Printf] would build, so the output is the
   same byte for byte; [Printf.sprintf] would interpret its format and
   rebuild the C format string on every call. *)
external format_float : string -> float -> string = "caml_format_float"

(* 17 significant digits round-trip every finite double; integers print
   without an exponent or trailing zeros so keys and counts stay
   readable. *)
let float_token f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.0f" f
  else format_float "%.17g" f

let num f =
  if Float.is_nan f then Str "nan"
  else if f = Float.infinity then Str "inf"
  else if f = Float.neg_infinity then Str "-inf"
  else Num f

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> (
      (* Defensive: a Num built without [num] still renders as valid
         JSON. *)
      match num f with
      | Num f -> Buffer.add_string buf (float_token f)
      | v -> write buf v)
  | Str s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the raw bytes. *)

exception Parse_error of int * string

let parse src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some d when Char.equal d c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let k = String.length word in
    if !pos + k <= n && String.equal (String.sub src !pos k) word then begin
      pos := !pos + k;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let utf8 buf code =
    (* Encode one BMP code point. *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = src.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = src.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              go ()
          | 'n' ->
              Buffer.add_char buf '\n';
              go ()
          | 't' ->
              Buffer.add_char buf '\t';
              go ()
          | 'r' ->
              Buffer.add_char buf '\r';
              go ()
          | 'b' ->
              Buffer.add_char buf '\b';
              go ()
          | 'f' ->
              Buffer.add_char buf '\012';
              go ()
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub src !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code -> utf8 buf code
              | None -> fail "bad \\u escape");
              go ()
          | _ -> fail "unknown escape")
      | c -> Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      match peek () with Some c -> is_num_char c | None -> false
    do
      advance ()
    done;
    let tok = String.sub src start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items := parse_value () :: !items;
                more ()
            | Some ']' -> advance ()
            | _ -> fail "expected , or ] in array"
          in
          more ();
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields := field () :: !fields;
                more ()
            | Some '}' -> advance ()
            | _ -> fail "expected , or } in object"
          in
          more ();
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after value";
  v

let of_string src =
  match parse src with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "json: at byte %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member key = function
  | Obj fields ->
      List.find_map
        (fun (k, v) -> if String.equal k key then Some v else None)
        fields
  | _ -> None

let to_float = function
  | Num f -> Some f
  | Str "nan" -> Some Float.nan
  | Str "inf" -> Some Float.infinity
  | Str "-inf" -> Some Float.neg_infinity
  | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 ->
      Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
