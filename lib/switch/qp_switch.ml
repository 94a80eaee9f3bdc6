type _ parser =
  | Choice : (string list * 'a) list -> 'a parser
  | Positive_int : int parser
  | Custom : (string -> ('a, string) result) * ('a -> string) -> 'a parser

type 'a t = {
  name : string;
  parser : 'a parser;
  default : 'a;
  override : 'a option Atomic.t;
}

let name sw = sw.name
let parser sw = sw.parser
let default sw = sw.default

let parse_value : type a. a parser -> string -> (a, string) result =
 fun parser text ->
  match parser with
  | Choice table -> (
      let key = String.lowercase_ascii text in
      match List.find_opt (fun (names, _) -> List.mem key names) table with
      | Some (_, v) -> Ok v
      | None ->
          Error
            (Printf.sprintf "unknown value %S (accepted: %s)" text
               (String.concat ", " (List.concat_map fst table))))
  | Positive_int -> (
      match int_of_string_opt text with
      | Some n when n >= 1 && String.for_all (fun c -> c >= '0' && c <= '9') text
        ->
          Ok n
      | _ -> Error (Printf.sprintf "%S is not a positive integer" text))
  | Custom (parse, _) -> parse text

let parse sw text =
  match String.trim text with "" -> Ok sw.default | text -> parse_value sw.parser text

let show : type a. a t -> a -> string =
 fun sw v ->
  match sw.parser with
  | Choice table -> (
      match List.find_opt (fun (_, w) -> w = v) table with
      | Some (name :: _, _) -> name
      | _ -> "?")
  | Positive_int -> string_of_int v
  | Custom (_, print) -> print v

let or_exit label = function
  | Ok v -> v
  | Error msg ->
      Printf.eprintf "%s: %s\n%!" label msg;
      exit 2

let get sw =
  match Atomic.get sw.override with
  | Some v -> v
  | None -> (
      match Sys.getenv_opt sw.name with
      | None -> sw.default
      | Some text -> or_exit sw.name (parse sw text))

let set sw v = Atomic.set sw.override (Some v)
let set_flag sw flag text = set sw (or_exit flag (parse sw text))

let declare name parser ~default =
  let sw = { name; parser; default; override = Atomic.make None } in
  ignore (get sw);
  sw
