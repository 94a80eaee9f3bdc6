(* Tests for Qp_switch over every switch the libraries declare: each
   accepted spelling parses to its value in any case and with blanks
   around it, blank means the default, a one-letter typo is an Error
   naming the accepted values, and parse never raises. *)

module S = Qp_switch

(* A declared switch with what the properties need to know about it:
   its accepted spellings and their values, how much of a spelling a
   typo may hit (QP_FAULTS: the site name, not the numbers after it),
   and the text every Error must contain to name the accepted values. *)
type case =
  | Case : {
      sw : 'a S.t;
      spellings : (string * 'a) list;
      typo_span : string -> int;
      listing : string;
    }
      -> case

let choice_case : type a. a S.t -> case =
 fun sw ->
  match S.parser sw with
  | S.Choice table ->
      Case
        {
          sw;
          spellings =
            List.concat_map (fun (names, v) -> List.map (fun n -> (n, v)) names) table;
          typo_span = String.length;
          listing = String.concat ", " (List.concat_map fst table);
        }
  | S.Positive_int | S.Custom _ -> invalid_arg "choice_case"

let fault_spellings =
  List.concat_map
    (fun (site, _) ->
      List.map
        (fun kind ->
          let text = Printf.sprintf "%s:%s:p=0.5:seed=3" site kind in
          (text, Result.get_ok (Qp_fault.parse text)))
        [ "fail"; "nan"; "stall" ])
    Qp_fault.known_sites

let cases =
  [
    choice_case Qp_lp.Simplex.engine_switch;
    choice_case Qp_lp.Simplex.warm_switch;
    choice_case Qp_relational.Delta_eval.engine_switch;
    choice_case Qp_experiments.Runner.profile_switch;
    Case
      {
        sw = Qp_util.Parallel.jobs_switch;
        spellings =
          [ ("1", 1); ("2", 2); ("16", 16); ("007", 7); ("1000000", 1_000_000) ];
        typo_span = String.length;
        listing = "is not a positive integer";
      };
    Case
      {
        sw = Qp_fault.switch;
        spellings = fault_spellings;
        typo_span = (fun text -> String.index text ':');
        listing = String.concat ", " (List.map fst Qp_fault.known_sites);
      };
  ]

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let gen_blanks =
  QCheck2.Gen.(
    string_size ~gen:(oneofl [ ' '; '\t'; '\n'; '\r'; '\012' ]) (int_range 0 3))

(* Choice names match in any case; digits and fault specs have none to
   vary, so every spelling is recased only where that means something. *)
let recase flips text =
  String.mapi
    (fun i c ->
      if List.nth flips (i mod List.length flips) then Char.uppercase_ascii c else c)
    text

let is_choice : type a. a S.t -> bool =
 fun sw -> match S.parser sw with S.Choice _ -> true | _ -> false

let prop_spellings (Case { sw; spellings; _ }) =
  let gen =
    QCheck2.Gen.(
      quad (int_bound (List.length spellings - 1)) (list_size (int_range 1 8) bool)
        gen_blanks gen_blanks)
  in
  QCheck2.Test.make ~count:300
    ~name:(S.name sw ^ ": each spelling parses, any case, blanks around")
    gen (fun (k, flips, l, r) ->
      let text, v = List.nth spellings k in
      let text = if is_choice sw then recase flips text else text in
      S.parse sw (l ^ text ^ r) = Ok v)

let prop_blank (Case { sw; _ }) =
  QCheck2.Test.make ~count:100 ~name:(S.name sw ^ ": blank means the default")
    gen_blanks (fun blank -> S.parse sw blank = Ok (S.default sw))

let prop_typo (Case { sw; spellings; typo_span; listing }) =
  let gen =
    QCheck2.Gen.(
      triple (int_bound (List.length spellings - 1)) nat (char_range 'a' 'z'))
  in
  QCheck2.Test.make ~count:300
    ~name:(S.name sw ^ ": a one-letter typo is an Error listing the names")
    gen (fun (k, at, c) ->
      let text, _ = List.nth spellings k in
      let b = Bytes.of_string text in
      Bytes.set b (at mod typo_span text) c;
      let typo = Bytes.to_string b in
      (* the typo may land on another accepted name ("no" from "on" is two
         letters away, but "cheek" is not "check"): only misspellings count *)
      QCheck2.assume
        (not (List.exists (fun (t, _) -> String.lowercase_ascii t = typo) spellings));
      match S.parse sw typo with
      | Ok _ -> false
      | Error msg -> contains ~sub:listing msg)

let prop_never_raises (Case { sw; _ }) =
  QCheck2.Test.make ~count:500 ~name:(S.name sw ^ ": parse never raises")
    QCheck2.Gen.(string_size ~gen:char (int_range 0 24))
    (fun text -> match S.parse sw text with Ok _ | Error _ -> true)

(* show prints the spelling that parses back to the value: the first
   name of a choice entry, which is what a trace or a flag's doc shows. *)
let test_show_parses_back () =
  List.iter
    (fun (Case { sw; spellings; _ }) ->
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) (S.name sw ^ " " ^ S.show sw v) true
            (S.parse sw (S.show sw v) = Ok v))
        spellings)
    cases;
  Alcotest.(check string) "canonical LP engine name" "revised"
    (S.show Qp_lp.Simplex.engine_switch Qp_lp.Simplex.Revised)

let test_set_overrides () =
  let sw = Qp_lp.Simplex.warm_switch in
  let was = Qp_lp.Simplex.warm_starts () in
  Fun.protect ~finally:(fun () -> S.set sw was) @@ fun () ->
  S.set sw false;
  Alcotest.(check bool) "override read back" false (Qp_lp.Simplex.warm_starts ());
  S.set sw true;
  Alcotest.(check bool) "last set wins" true (S.get sw)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  let props =
    List.concat_map
      (fun c -> [ prop_spellings c; prop_blank c; prop_typo c; prop_never_raises c ])
      cases
  in
  ( "switch",
    [ t "show parses back" test_show_parses_back; t "set overrides" test_set_overrides ]
    @ List.map QCheck_alcotest.to_alcotest props )
