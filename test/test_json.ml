(* Tests for the Qp_json codec: printing then parsing gives back the
   value bit for bit (compact and file layouts), non-finite numbers
   print as null, and mutated input never makes the parser raise. *)

module J = Qp_json

(* Structural equality with floats compared by their bits, so -0.0 and
   0.0 differ and every mantissa bit counts. *)
let rec equal a b =
  match (a, b) with
  | J.Num x, J.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.List xs, J.List ys -> List.equal equal xs ys
  | J.Obj xs, J.Obj ys ->
      List.equal (fun (k, x) (l, y) -> String.equal k l && equal x y) xs ys
  | _ -> a = b

let edge_floats =
  [ 0.0; -0.0; 1.0; -1.0; 0.1; 5460.1; Float.min_float; 4.9e-324;
    -2.2250738585072e-310; 9007199254740992.0; -9007199254740992.0;
    9007199254740993.0; Float.max_float; -.Float.max_float; 1e21; 1e-7 ]

let gen_float =
  QCheck2.Gen.(
    frequency
      [ (2, oneofl edge_floats);
        (2, map Int64.float_of_bits ui64);
        (1, map Float.of_int (int_range (-1_000_000) 1_000_000)) ])
  |> QCheck2.Gen.map (fun f -> if Float.is_finite f then f else 0.5)

let gen_string = QCheck2.Gen.(string_size ~gen:char (int_range 0 12))

let gen_value =
  QCheck2.Gen.(
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [ pure J.Null; map (fun b -> J.Bool b) bool;
                 map (fun f -> J.Num f) gen_float;
                 map (fun s -> J.String s) gen_string ]
           in
           if depth = 0 then leaf
           else
             frequency
               [ (2, leaf);
                 (1, map (fun l -> J.List l) (list_size (int_range 0 4) (self (depth - 1))));
                 ( 1,
                   map (fun l -> J.Obj l)
                     (list_size (int_range 0 4) (pair gen_string (self (depth - 1)))) ) ]))

let print v = J.to_string v

let round_trips text v =
  match J.parse text with Ok w -> equal v w | Error _ -> false

(* Also: the compact text holds no control byte, so it is one JSONL
   line and valid JSON. *)
let prop_string_round_trip =
  QCheck2.Test.make ~name:"parse (to_string v) = Ok v" ~count:2000 ~print gen_value
    (fun v ->
      let text = J.to_string v in
      String.for_all (fun c -> c >= ' ') text && round_trips text v)

let prop_file_round_trip =
  QCheck2.Test.make ~name:"parse of a to_file file gives v back" ~count:300 ~print
    gen_value (fun v ->
      let path = Filename.temp_file "qp_json" ".json" in
      Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
      J.to_file path v;
      round_trips (In_channel.with_open_bin path In_channel.input_all) v)

(* Overwrite a few bytes, or cut the text short: parse answers Ok or
   Error, whatever the damage. *)
let prop_mutations_never_raise =
  let gen =
    QCheck2.Gen.(
      triple gen_value
        (list_size (int_range 1 4) (pair nat char))
        (option nat))
  in
  QCheck2.Test.make ~name:"parse never raises on mutated text" ~count:2000 gen
    (fun (v, edits, cut) ->
      let b = Bytes.of_string (J.to_string v) in
      let n = Bytes.length b in
      List.iter (fun (i, c) -> Bytes.set b (i mod n) c) edits;
      let text = Bytes.to_string b in
      let text = match cut with Some k -> String.sub text 0 (k mod (n + 1)) | None -> text in
      match J.parse text with Ok _ | Error _ -> true)

let test_non_finite_prints_null () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) "[null]"
        (J.to_string (J.List [ J.Num f ])))
    [ Float.infinity; Float.neg_infinity; Float.nan ]

let test_number_format () =
  List.iter
    (fun (f, text) -> Alcotest.(check string) text text (J.to_string (J.Num f)))
    [ (5.0, "5"); (5460.1, "5460.1"); (0.1, "0.1"); (-0.0, "-0");
      (9007199254740992.0, "9007199254740992"); (1e21, "1e+21") ]

let test_to_file_layout () =
  let path = Filename.temp_file "qp_json_layout" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  J.to_file path
    (J.Obj
       [ ("meta", J.Obj [ ("a", J.Num 1.0) ]);
         ("rows", J.List [ J.Obj [ ("n", J.Num 1.0) ]; J.Obj [ ("n", J.Num 2.0) ] ]);
         ("none", J.List []) ]);
  Alcotest.(check string) "one line per member and per row"
    "{\n  \"meta\": {\"a\":1},\n  \"rows\": [\n    {\"n\":1},\n    {\"n\":2}\n  ],\n  \"none\": []\n}\n"
    (In_channel.with_open_bin path In_channel.input_all)

(* \u escapes: exactly four hex digits, and a surrogate pair is one
   code point (4-byte UTF-8); a lone surrogate is an error. *)
let test_unicode_escapes () =
  List.iter
    (fun (text, want) ->
      Alcotest.(check (result string string)) text want
        (Result.map
           (function J.String s -> s | v -> J.to_string v)
           (J.parse text)
        |> Result.map_error (fun _ -> "error")))
    [ ({|"\u0041\u00e9\u20AC"|}, Ok "A\195\169\226\130\172");
      ({|"\ud83d\ude00"|}, Ok "\240\159\152\128");
      ({|"\uD800\uDC00x"|}, Ok "\240\144\128\128x");
      ({|"\ud83d"|}, Error "error");
      ({|"\ud83dx"|}, Error "error");
      ({|"\ud83d\u0041"|}, Error "error");
      ({|"\ude00"|}, Error "error");
      ({|"\u1_23"|}, Error "error");
      ({|"\u+123"|}, Error "error");
      ({|"\u12"|}, Error "error") ]

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "json",
    [
      t "non-finite numbers print as null" test_non_finite_prints_null;
      t "shortest round-tripping number format" test_number_format;
      t "to_file puts members and rows on lines" test_to_file_layout;
      t "\\u escapes: four hex digits, surrogate pairs" test_unicode_escapes;
      QCheck_alcotest.to_alcotest prop_string_round_trip;
      QCheck_alcotest.to_alcotest prop_file_round_trip;
      QCheck_alcotest.to_alcotest prop_mutations_never_raise;
    ] )
