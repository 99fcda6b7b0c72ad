(* A minimal deterministic JSON value type, printer, and parser, plus the
   printer's primitives ([add_int], [escape_string], [float_repr]) that the
   streaming JSONL writer calls directly.  Kept dependency-free on purpose.
   [printf_rule] defines a float's text; [float_repr] prints the same bytes
   by integer arithmetic for the values exports mostly hold. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* C's printf conversion, which [Printf]'s [%g]/[%f] end in; calling it
   directly skips the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* The float rule, and its definition: an integral value of magnitude below
   1e15 prints as "%.1f"; any other value as 12 significant digits when they
   parse back to the same float, else 17 (which always do).  Not the
   shortest round-trippable text: 1.0000000000001 prints as
   1.0000000000000999.  Re-emitting a parsed stream is byte-identical to the
   original.  [float_repr] calls it outside its integer path's domain. *)
let printf_rule f =
  if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
  else
    let s = format_float "%.12g" f in
    match float_of_string_opt s with
    | Some f' when Float.equal f' f -> s
    | Some _ | None -> format_float "%.17g" f

(* 10^k for k = 0..22, each an exact double (5^22 < 2^53). *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let rec ndigits d = if d < 10 then 1 else 1 + ndigits (d / 10)

(* [%g]'s fixed notation of [d * 10^x], for [d > 0] and [x <= 0]: the
   fraction's trailing zeros and a bare point dropped, "0.00ddd" below 1. *)
let fixed ~neg d x =
  let d = ref d and frac = ref (-x) in
  while !frac > 0 && !d mod 10 = 0 do
    d := !d / 10;
    decr frac
  done;
  let sign = Bool.to_int neg in
  let whole = Int.max 1 (ndigits !d - !frac) in
  let point = if !frac > 0 then sign + whole else -1 in
  let len = sign + whole + if !frac > 0 then !frac + 1 else 0 in
  (* the digits fill from the right; the zeros of "0.00ddd" are the fill *)
  let s = Bytes.make len '0' in
  if neg then Bytes.set s 0 '-';
  if point >= 0 then Bytes.set s point '.';
  let i = ref (len - 1) in
  while !d > 0 do
    if !i = point then decr i;
    Bytes.set s !i (Char.unsafe_chr (48 + (!d mod 10)));
    d := !d / 10;
    decr i
  done;
  Bytes.unsafe_to_string s

(* [printf_rule]'s bytes without printf, for a finite non-integral [f] with
   1e-4 <= |f| < 1e15 (decimal exponent E = -4..14, where both precisions
   print fixed notation).  For a = |f| and k = 16 - E <= 20, 10^k is exact
   and [Float.fma] gives a*10^k = p + r exactly, which corrects
   [Float.log10]'s E next to a power of ten.  p >= 1e16 > 2^53 is an even
   integer, so N = p + r rounded half to even is glibc's [%.17g] digits.
   q, N rounded to 12 digits, times 10^(E-11) is one correctly rounded
   multiply or divide of exact doubles (Clinger's fast path), so it equals
   what [float_of_string] reads back from the [%.12g] text; and a 12-digit
   decimal that reads back as a lies within an ulp of a, so it is q.  For
   E >= 11 that decimal is an integer, never a, so [%.12g]'s exponent
   notation from 1e12 up is never wanted. *)
let float_repr f =
  let a = Float.abs f in
  if Float.is_integer f || not (a >= 1e-4 && a < 1e15) then printf_rule f
  else begin
    let e = int_of_float (Float.floor (Float.log10 a)) in
    let p = a *. pow10.(16 - e) in
    let r = Float.fma a pow10.(16 - e) (-.p) in
    let e =
      if p > 1e17 || (Float.equal p 1e17 && r >= 0.) then e + 1
      else if p < 1e16 || (Float.equal p 1e16 && r < 0.) then e - 1
      else e
    in
    let p = a *. pow10.(16 - e) in
    let r = Float.fma a pow10.(16 - e) (-.p) in
    (* adding and taking away 1.5 * 2^52 rounds r half to even *)
    let n = int_of_float p + int_of_float (r +. 0x1.8p52 -. 0x1.8p52) in
    let q = (n + 50_000) / 100_000 in
    let back =
      if e >= 11 then float_of_int q *. pow10.(e - 11)
      else float_of_int q /. pow10.(11 - e)
    in
    let neg = f < 0. in
    if Float.equal back a then fixed ~neg q (e - 11) else fixed ~neg n (e - 16)
  end

(* Decimal digits of [-n] for [n <= 0], so [min_int] needs no case. *)
(* vslint: alloc-free *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.chr (48 - (n mod 10)))

(* [string_of_int n] appended without building the string. *)
(* vslint: alloc-free *)
let add_int buf n =
  if n < 0 then Buffer.add_char buf '-';
  add_neg_digits buf (if n > 0 then -n else n)

let needs_escape c = Char.equal c '"' || Char.equal c '\\' || Char.code c < 0x20

(* Index of the first byte of [s] from [i] on that needs escaping, or
   [String.length s]. *)
let rec clean_until s i =
  if i < String.length s && not (needs_escape (String.unsafe_get s i)) then
    clean_until s (i + 1)
  else i

let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let first = clean_until s 0 in
  if first = n then Buffer.add_string buf s
  else begin
    Buffer.add_substring buf s 0 first;
    for i = first to n - 1 do
      match String.unsafe_get s i with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c
    done
  end;
  Buffer.add_char buf '"'

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f when Float.is_finite f -> Buffer.add_string buf (float_repr f)
  | Float _ -> Buffer.add_string buf "null"
  | Str s -> escape_string buf s
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          write buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- parser ------------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        go ()
    | Some _ | None -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when Char.equal x ch -> advance c
  | Some _ | None -> fail c (Printf.sprintf "expected '%c'" ch)

let parse_literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.equal (String.sub c.src c.pos n) word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected '%s'" word)

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c "unterminated escape"
        | Some esc ->
            advance c;
            (match esc with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if c.pos + 4 > String.length c.src then
                  fail c "truncated \\u escape"
                else begin
                  let hex = String.sub c.src c.pos 4 in
                  match int_of_string_opt ("0x" ^ hex) with
                  | None -> fail c "bad \\u escape"
                  | Some code ->
                      c.pos <- c.pos + 4;
                      if code < 0x80 then Buffer.add_char buf (Char.chr code)
                      else if code < 0x800 then begin
                        Buffer.add_char buf
                          (Char.chr (0xC0 lor (code lsr 6)));
                        Buffer.add_char buf
                          (Char.chr (0x80 lor (code land 0x3F)))
                      end
                      else begin
                        Buffer.add_char buf
                          (Char.chr (0xE0 lor (code lsr 12)));
                        Buffer.add_char buf
                          (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                        Buffer.add_char buf
                          (Char.chr (0x80 lor (code land 0x3F)))
                      end
                end
            | _ -> fail c "bad escape");
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
        advance c;
        go ()
    | Some _ | None -> ()
  in
  go ();
  let token = String.sub c.src start (c.pos - start) in
  let has_float_syntax =
    String.exists (fun ch -> Char.equal ch '.' || Char.equal ch 'e' || Char.equal ch 'E') token
  in
  (* A finite double or nothing: 5e460 would read as infinity, which the
     printer cannot write back as JSON. *)
  let float () =
    match float_of_string_opt token with
    | Some f when Float.is_finite f -> Float f
    | Some _ -> fail c "number overflows a double"
    | None -> fail c "bad number"
  in
  if has_float_syntax then float ()
  else match int_of_string_opt token with Some i -> Int i | None -> float ()

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string_body c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if (match peek c with Some '}' -> true | Some _ | None -> false) then begin
        advance c;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let key = parse_string_body c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields ((key, v) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((key, v) :: acc)
          | Some _ | None -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if (match peek c with Some ']' -> true | Some _ | None -> false) then begin
        advance c;
        Arr []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | Some _ | None -> fail c "expected ',' or ']'"
        in
        Arr (items [])
      end
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character '%c'" ch)

let of_string s =
  let c = { src = s; pos = 0 } in
  match parse_value c with
  | v ->
      skip_ws c;
      if c.pos = String.length s then Ok v else Error "trailing garbage"
  | exception Parse_error msg -> Error msg

(* --- typed accessors ----------------------------------------------------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Str _ | Arr _ -> None

let to_float_opt = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Null | Bool _ | Str _ | Arr _ | Obj _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Null | Bool _ | Float _ | Str _ | Arr _ | Obj _ -> None

let to_string_opt = function
  | Str s -> Some s
  | Null | Bool _ | Int _ | Float _ | Arr _ | Obj _ -> None

let to_bool_opt = function
  | Bool b -> Some b
  | Null | Int _ | Float _ | Str _ | Arr _ | Obj _ -> None

let to_list_opt = function
  | Arr items -> Some items
  | Null | Bool _ | Int _ | Float _ | Str _ | Obj _ -> None
