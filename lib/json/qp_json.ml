(* The project's one JSON codec (see the interface for its number and
   string rules). The parser takes full JSON, so a file edited by hand
   or by other tools still loads. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- printing ---------------------------------------------------------- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let number f =
  let bits = Int64.bits_of_float in
  let rec shortest p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || Int64.equal (bits (float_of_string s)) (bits f) then s
    else shortest (p + 1)
  in
  if Float.is_finite f then shortest 15 else "null"

(* [item] over [l] between [opening] and [closing]; with [indent] > 0,
   each item on a line of its own, [indent] spaces in. *)
let seq b ~indent opening closing item l =
  let newline w = if indent > 0 then Buffer.add_string b ("\n" ^ String.make w ' ') in
  Buffer.add_char b opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char b ',';
      newline indent;
      item x)
    l;
  if l <> [] then newline (indent - 2);
  Buffer.add_char b closing

let add_member b ~sep value (k, v) =
  add_string b k;
  Buffer.add_string b sep;
  value v

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f -> Buffer.add_string b (number f)
  | String s -> add_string b s
  | List l -> seq b ~indent:0 '[' ']' (write b) l
  | Obj fields -> seq b ~indent:0 '{' '}' (add_member b ~sep:":" (write b)) fields

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

let to_file path v =
  let b = Buffer.create 4096 in
  let elements indent = function
    | List l -> seq b ~indent '[' ']' (write b) l
    | v -> write b v
  in
  (match v with
  | Obj fields ->
      seq b ~indent:2 '{' '}' (add_member b ~sep:": " (elements 4)) fields
  | v -> elements 2 v);
  Buffer.add_char b '\n';
  Out_channel.with_open_text path (fun oc -> Buffer.output_buffer oc b)

(* --- parsing ----------------------------------------------------------- *)

exception Malformed of string

let parse_exn (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
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
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* The four hex digits after the "u" at [pos]; leaves [pos] on the
     last of them. *)
  let hex4 () =
    if !pos + 4 >= n then fail "truncated \\u escape";
    let hex = String.sub s (!pos + 1) 4 in
    pos := !pos + 4;
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if String.for_all is_hex hex then int_of_string ("0x" ^ hex)
    else fail "bad \\u escape"
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape");
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              (* A UTF-16 surrogate pair is one code point above U+FFFF
                 (the printer itself only escapes control characters). *)
              let code = hex4 () in
              let lone () = fail "lone surrogate in \\u escape" in
              let code =
                if code land 0xFC00 = 0xDC00 then lone ()
                else if code land 0xFC00 <> 0xD800 then code
                else if !pos + 2 < n && s.[!pos + 1] = '\\' && s.[!pos + 2] = 'u'
                then begin
                  pos := !pos + 2;
                  let low = hex4 () in
                  if low land 0xFC00 <> 0xDC00 then lone ();
                  0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                end
                else lone ()
              in
              Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
          advance ();
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (key, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "empty input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s = try Ok (parse_exn s) with Malformed msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let str j = match j with String s -> Some s | _ -> None
let num j = match j with Num f -> Some f | _ -> None
let items j = match j with List l -> Some l | _ -> None
