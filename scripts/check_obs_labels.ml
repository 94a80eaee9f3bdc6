(* Observability-taxonomy lint: every span/event/counter/gauge/histogram
   label passed to Qp_obs must be a lowercase dotted name under a
   registered prefix. The taxonomy in docs/OBSERVABILITY.md is only
   useful while it stays closed: an unregistered prefix means either a
   typo ("simplx.solve") or a new subsystem whose prefix should be
   registered here and documented there — both worth failing the build
   over.

   Run as:  ocaml scripts/check_obs_labels.ml lib bench
   For each call to Qp_obs.{with_span,event,counter,gauge_max,observe_ns}
   the first string literal after the call token (same line, or the next
   line for wrapped calls) is checked:
     - characters drawn from [a-z0-9_.], components non-empty;
     - the first dotted component is a registered prefix;
     - a literal used as a concatenation prefix (followed by [^]) must
       end with '.' so the dynamic part starts a new component.
   Dynamic labels built from a non-literal head are invisible to this
   lint — keep their construction next to a registered literal prefix,
   as lib/experiments/runner.ml does with "algo.". Exits 1 on any hit
   outside the allowlist. Wired into `make check`. *)

(* Registered label prefixes (first dotted component). Keep sorted;
   register new subsystems here *and* in docs/OBSERVABILITY.md. *)
let registered_prefixes =
  [
    "algo";
    "bench";
    "bounds";
    "capped";
    "cip";
    "class_lp";
    "conflict";
    "degraded";
    "fault";
    "layering";
    "lp";
    "lpip";
    "online";
    "parallel";
    "runner";
    "serve";
    "simplex";
    "support";
    "ubp";
    "uip";
    "valuations";
    "workload";
    "xos";
  ]

(* Labels tolerated without a dot: historical bare names that are also
   registered prefixes (the "degraded" event predates the dotted
   discipline and is pinned by trace-structure tests). *)
let bare_labels = [ "degraded" ]

(* (path, substring-of-line) pairs knowingly tolerated. *)
let allowlist : (string * string) list = []

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        Array.of_list (List.rev acc)
  in
  go []

(* Remove comment spans (they nest) from a line, carrying the nesting
   depth across lines. *)
let strip_comments depth line =
  let buf = Buffer.create (String.length line) in
  let n = String.length line in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && line.[!i] = '(' && line.[!i + 1] = '*' then begin
      incr depth;
      i := !i + 2
    end
    else if !i + 1 < n && line.[!i] = '*' && line.[!i + 1] = ')' && !depth > 0
    then begin
      decr depth;
      i := !i + 2
    end
    else begin
      if !depth = 0 then Buffer.add_char buf line.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let call_tokens =
  [
    "Qp_obs.with_span";
    "Qp_obs.event";
    "Qp_obs.counter";
    "Qp_obs.gauge_max";
    "Qp_obs.observe_ns";
  ]

let is_ident c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* First string literal in [s], plus whether a '^' follows it (i.e. the
   literal is the head of a concatenation). *)
let first_literal s =
  match String.index_opt s '"' with
  | None -> None
  | Some i -> (
      match String.index_from_opt s (i + 1) '"' with
      | None -> None
      | Some j ->
          let lit = String.sub s (i + 1) (j - i - 1) in
          let k = ref (j + 1) in
          let n = String.length s in
          while !k < n && s.[!k] = ' ' do
            incr k
          done;
          Some (lit, !k < n && s.[!k] = '^'))

let label_chars_ok lit =
  lit <> ""
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.')
       lit

let components lit = String.split_on_char '.' lit

let check_label ~is_prefix lit =
  if not (label_chars_ok lit) then
    Some "labels are lowercase dotted names ([a-z0-9_.])"
  else if is_prefix then
    (* "algo." ^ dynamic: the literal must close a component. *)
    if lit.[String.length lit - 1] <> '.' then
      Some "concatenated label prefixes must end with '.'"
    else
      let comps = components (String.sub lit 0 (String.length lit - 1)) in
      if List.exists (fun c -> c = "") comps then
        Some "empty label component"
      else if not (List.mem (List.hd comps) registered_prefixes) then
        Some
          (Printf.sprintf "unregistered label prefix %S" (List.hd comps))
      else None
  else
    let comps = components lit in
    if List.exists (fun c -> c = "") comps then Some "empty label component"
    else if not (List.mem (List.hd comps) registered_prefixes) then
      Some (Printf.sprintf "unregistered label prefix %S" (List.hd comps))
    else if List.length comps = 1 && not (List.mem lit bare_labels) then
      Some "label needs a '.' (prefix.operation)"
    else None

(* Occurrences of a call token (word-boundary on both sides) in [code]. *)
let token_positions tok code =
  let tn = String.length tok and n = String.length code in
  let rec scan i acc =
    if i + tn > n then List.rev acc
    else if
      String.sub code i tn = tok
      && (i = 0 || not (is_ident code.[i - 1] || code.[i - 1] = '.'))
      && (i + tn = n || not (is_ident code.[i + tn]))
    then scan (i + tn) ((i + tn) :: acc)
    else scan (i + 1) acc
  in
  scan 0 []

let check_file path =
  let lines = read_lines path in
  let depth = ref 0 in
  let stripped = Array.map (fun l -> strip_comments depth l) lines in
  let hits = ref [] in
  Array.iteri
    (fun i code ->
      List.iter
        (fun tok ->
          List.iter
            (fun pos ->
              let rest = String.sub code pos (String.length code - pos) in
              (* Wrapped calls put the label on the following line. *)
              let rest =
                if String.contains rest '"' then rest
                else if i + 1 < Array.length stripped then
                  rest ^ " " ^ stripped.(i + 1)
                else rest
              in
              match first_literal rest with
              | None -> ()  (* fully dynamic label: out of lint reach *)
              | Some (lit, is_prefix) -> (
                  match check_label ~is_prefix lit with
                  | Some why ->
                      if not (List.exists
                                (fun (p, sub) -> p = path && contains sub lines.(i))
                                allowlist)
                      then hits := (i + 1, lit, why) :: !hits
                  | None -> ()))
            (token_positions tok code))
        call_tokens)
    stripped;
  List.rev !hits

let rec walk dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then walk path
         else if Filename.check_suffix f ".ml" then [ path ]
         else [])

let () =
  let dirs =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as dirs) -> dirs
    | _ -> [ "lib"; "bench" ]
  in
  let failures = ref 0 in
  List.iter
    (fun dir ->
      List.iter
        (fun path ->
          List.iter
            (fun (line, lit, why) ->
              incr failures;
              Printf.printf "%s:%d: obs label %S: %s\n" path line lit why)
            (check_file path))
        (walk dir))
    dirs;
  if !failures > 0 then begin
    Printf.printf
      "obs-label lint: %d bad label(s) — labels are lowercase dotted names \
       under a prefix registered in scripts/check_obs_labels.ml (and \
       documented in docs/OBSERVABILITY.md)\n"
      !failures;
    exit 1
  end
  else
    print_endline "obs-label lint: all labels under registered prefixes"
