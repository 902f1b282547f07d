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

(* Numbers print as C's [%.0f] when they are integers below 1e15, so
   keys and counts stay readable, and as [%.17g] otherwise: 17
   significant digits round-trip every finite double.  Both are written
   here with integer arithmetic, byte for byte what glibc's printf
   gives, except for finite values outside [1e-5, 1e17) in magnitude,
   which go to the C primitive behind [Printf]'s [%g] (DESIGN.md
   section 14, "Number encoding"). *)
external format_float : string -> float -> string = "caml_format_float"

(* 5^q for q = 0 .. 21; 5^21 < 2^49.  Read-only after initialization. *)
let pow5 =
  Array.init 22 (fun q ->
      let rec go q acc = if q = 0 then acc else go (q - 1) (5 * acc) in
      go q 1)

let p16 = 10_000_000_000_000_000
let p17 = 100_000_000_000_000_000
let mask26 = (1 lsl 26) - 1
let mask52 = (1 lsl 52) - 1

(* A token is assembled right to left in a scratch of this many bytes,
   then copied into the buffer: a sign, "0.", three leading zeros and
   17 digits is the longest. *)
let scratch_bytes = 24

(* qsens-hot: begin *)

(* For a = m · 2^e in [1e-5, 1e17) with [m < 2^53], and q in [0, 21]:
   the integer n = floor (a · 10^q) shifted left by two, with the first
   bit it dropped (the guard) in bit 1 and whether any later dropped bit
   is set (the sticky) in bit 0, which is all round-half-to-even needs.
   10^q = 5^q · 2^q, so n is the product m · 5^q < 2^102, held exactly
   as [hi · 2^52 + lo], shifted right by [-(q + e)].  Splitting both
   factors into 26-bit halves keeps every partial product below 2^54.
   In that range the shift drops at most 48 bits, and the caller keeps
   n below 10^18, so the result fits in an int. *)
let scaled m e q =
  let f = Array.unsafe_get pow5 q in
  let mh = m lsr 26 and ml = m land mask26 in
  let fh = f lsr 26 and fl = f land mask26 in
  let mid = (mh * fl) + (ml * fh) in
  let low = (ml * fl) + ((mid land mask26) lsl 26) in
  let hi = (mh * fh) + (mid lsr 26) + (low lsr 52) in
  let lo = low land mask52 in
  (* Drop all but the guard bit: k bits. *)
  let k = -(q + e) - 1 in
  if k < 0 then ((hi lsl 52) lor lo) lsl (1 - k)
  else
    let w = (hi lsl (52 - k)) lor (lo lsr k) in
    (2 * w) + if lo land ((1 lsl k) - 1) <> 0 then 1 else 0

(* Writes [c] just left of index [i] of [s]; returns its index. *)
let put s i c =
  Bytes.unsafe_set s (i - 1) c;
  i - 1

(* Writes the digits of [n >= 0] into [s] right to left, ending just
   left of [i], the last [frac] of them after a '.'; returns the index
   of the first.  [frac] may exceed [n]'s digit count: the missing
   digits are leading zeros, with a "0" before the point.  Trailing
   zeros of the fraction are dropped, and the point with them when no
   fractional digit remains; [zeros] says every digit to the right of
   [n]'s last one was such a zero. *)
let rec fill_digits s i n frac zeros =
  let d = n mod 10 in
  let zeros = zeros && d = 0 && frac > 0 in
  let i = if zeros then i else put s i (Char.unsafe_chr (48 + d)) in
  let i = if frac = 1 && not zeros then put s i '.' else i in
  if n >= 10 || frac > 0 then fill_digits s i (n / 10) (frac - 1) zeros
  else i

(* [%.17g] of [a] in [1e-5, 1e17), written like [fill_digits].  n is
   [a] scaled to 17 significant digits, rounded half to even on the
   exact binary value as glibc does; C99's [%g] then picks fixed
   notation with [16 - x] decimals when the decimal exponent x is in
   [-4, 17), else [d.ddde±xx]. *)
let fill_exact s i a =
  let bits = Int64.to_int (Int64.bits_of_float a) in
  let m = (bits land mask52) lor (1 lsl 52) in
  let e = (bits lsr 52) - 1075 in
  (* a is in [2^(e+52), 2^(e+53)), so floor (log10 a) is [guess] or
     [guess + 1], with guess = floor ((e + 52) · log10 2); 78913 / 2^18
     gives that floor exactly for |e + 52| <= 1650.  The clamp only
     lifts [guess] from -6 to -5 for a in [1e-5, 2^-16), where the
     floor is -5, and keeps q = 16 - guess in [0, 21]. *)
  let guess = Int.max (-5) (((e + 52) * 78913) asr 18) in
  let r = scaled m e (16 - guess) in
  let x = if r lsr 2 >= p17 then guess + 1 else guess in
  let r = if x = guess then r else scaled m e (16 - x) in
  let n = r lsr 2 in
  let n =
    if r land 2 <> 0 && (r land 1 <> 0 || n land 1 <> 0) then n + 1 else n
  in
  (* Rounding up to 10^17 bumps the exponent. *)
  let x = if n = p17 then x + 1 else x in
  let n = if n = p17 then p16 else n in
  if x >= -4 && x < 17 then fill_digits s i n (16 - x) true
  else
    let ax = Int.abs x in
    let i = fill_digits s i ax 0 true in
    let i = if ax < 10 then put s i '0' else i in
    let i = put s i (if x < 0 then '-' else '+') in
    fill_digits s (put s i 'e') n 16 true

(* [s] is a scratch of [scratch_bytes] bytes. *)
let add_number buf s f =
  let a = Float.abs f in
  let integer = Float.is_integer f && a < 1e15 in
  if integer || (a >= 1e-5 && a < 1e17) then begin
    let i =
      if integer then fill_digits s scratch_bytes (int_of_float a) 0 true
      else fill_exact s scratch_bytes a
    in
    let i = if Float.sign_bit f then put s i '-' else i in
    Buffer.add_subbytes buf s i (scratch_bytes - i)
  end
  else Buffer.add_string buf (format_float "%.17g" f)

(* qsens-hot: end *)

let num f =
  if Float.is_nan f then Str "nan"
  else if f = Float.infinity then Str "inf"
  else if f = Float.neg_infinity then Str "-inf"
  else Num f

let rec write buf scratch = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f ->
      (* Defensive: a Num built without [num] still renders as valid
         JSON. *)
      if Float.is_finite f then add_number buf scratch f
      else write buf scratch (num f)
  | Str s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf scratch v)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          write buf scratch v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf (Bytes.create scratch_bytes) v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over the raw bytes. *)

exception Parse_error of int * string

(* The value of one hexadecimal digit, or -1.  A [\u] escape takes
   exactly four of them; [int_of_string] would also take OCaml's [_]
   separators. *)
let hex_digit = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* The scanner tests the byte at the cursor in place: no [char option]
   per byte, no polymorphic compare, and an escape-free string is one
   [String.sub]. *)
let parse src =
  let n = String.length src in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let at c = !pos < n && Char.equal src.[!pos] c in
  let rec skip_ws () =
    if !pos < n then
      match src.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c =
    if at c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let k = String.length word in
    let rec matches i =
      i = k || (Char.equal src.[!pos + i] word.[i] && matches (i + 1))
    in
    if !pos + k <= n && matches 0 then begin
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
  (* Moves the cursor to the next quote, backslash or the end. *)
  let skip_plain () =
    while !pos < n && match src.[!pos] with '"' | '\\' -> false | _ -> true do
      incr pos
    done
  in
  (* The cursor is at a quote, a backslash or the end. *)
  let rec escaped buf =
    if !pos >= n then fail "unterminated string";
    let c = src.[!pos] in
    incr pos;
    if Char.equal c '"' then Buffer.contents buf
    else begin
      if !pos >= n then fail "unterminated escape";
      let e = src.[!pos] in
      incr pos;
      (match e with
      | '"' | '\\' | '/' -> Buffer.add_char buf e
      | 'n' -> Buffer.add_char buf '\n'
      | 't' -> Buffer.add_char buf '\t'
      | 'r' -> Buffer.add_char buf '\r'
      | 'b' -> Buffer.add_char buf '\b'
      | 'f' -> Buffer.add_char buf '\012'
      | 'u' ->
          if !pos + 4 > n then fail "truncated \\u escape";
          let code = ref 0 in
          for i = !pos to !pos + 3 do
            let d = hex_digit src.[i] in
            if d < 0 then fail "bad \\u escape";
            code := (!code lsl 4) lor d
          done;
          pos := !pos + 4;
          utf8 buf !code
      | _ -> fail "unknown escape");
      let run = !pos in
      skip_plain ();
      Buffer.add_substring buf src run (!pos - run);
      escaped buf
    end
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    skip_plain ();
    if at '"' then begin
      incr pos;
      String.sub src start (!pos - 1 - start)
    end
    else begin
      let buf = Buffer.create 16 in
      Buffer.add_substring buf src start (!pos - start);
      escaped buf
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char src.[!pos] do
      incr pos
    done;
    let tok = String.sub src start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec parse_value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match src.[!pos] with
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while at ',' do
            incr pos;
            items := parse_value () :: !items;
            skip_ws ()
          done;
          if at ']' then incr pos else fail "expected , or ] in array";
          List (List.rev !items)
        end
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
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
          skip_ws ();
          while at ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          if at '}' then incr pos else fail "expected , or } in object";
          Obj (List.rev !fields)
        end
    | _ -> parse_number ()
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
