(* Test-only reference for [Json.of_string]: the parser as it stood
   before its scanner stopped allocating per byte, copied verbatim.  The
   fuzzer in test_server.ml holds the production parser to this one:
   the same [Ok] value, floats by bits, or the same [Error] string, on
   every input. *)

open Qsens_server.Json

exception Parse_error of int * string

(* The value of one hexadecimal digit, or -1.  A [\u] escape takes
   exactly four of them; [int_of_string] would also take OCaml's [_]
   separators. *)
let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

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
              let code = ref 0 in
              for i = !pos to !pos + 3 do
                let d = hex_digit src.[i] in
                if d < 0 then fail "bad \\u escape";
                code := (!code lsl 4) lor d
              done;
              pos := !pos + 4;
              utf8 buf !code;
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
