(* Aggregate a Chrome trace-event file (written by
   Qp_obs.write_chrome_trace, read with Qp_json) into a
   self-time/total-time table. Both forms of the Chrome format load:
   JSONL, one record per line, and the JSON array Perfetto wants, whose
   empty {} records (the array recipe's terminator) are skipped. *)

open Qp_json

(* A malformed trace; the message names the line or record at fault. *)
exception Bad_record of string

let string_field key j = Option.bind (member key j) str
let num_field key j = Option.bind (member key j) num

(* --- aggregation ------------------------------------------------------- *)

type span_stat = {
  label : string;
  count : int;
  total_us : float;  (* inclusive: sum of span durations *)
  self_us : float;   (* total minus time in direct children *)
  durations_us : float array;  (* one inclusive duration per span *)
}

type hist_stat = {
  hcount : int;
  sum_ns : float;
  max_ns : float;
  p50_ns : float;
  p95_ns : float;
}

type t = {
  spans : span_stat list;  (* first-seen order *)
  counters : (string * float) list;  (* final "C" samples, label order *)
  gauges : (string * float) list;  (* "C" samples tagged kind=gauge *)
  histograms : (string * hist_stat) list;
      (* "C" samples tagged kind=histogram, label order *)
  events : (string * int) list;  (* instant-event counts, label order *)
  reasons : (string * string * int) list;
      (* instant events carrying a "reason" arg: (label, reason, count),
         first-seen order *)
  total_us : float;  (* trace duration: last timestamp seen *)
}

type open_span = {
  olabel : string;
  ots : float;
  mutable children_us : float;
}

let aggregate records =
  let acc : (string, int * float * float * float list) Hashtbl.t =
    Hashtbl.create 32
  in
  let order = ref [] in
  let instants : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let instant_order = ref [] in
  let reasons : (string * string, int) Hashtbl.t = Hashtbl.create 16 in
  let reason_order = ref [] in
  let counters = ref [] in
  let gauges = ref [] in
  let histograms = ref [] in
  (* One open-span stack per lane (tid), and each lane's parent lane
     from its thread_name record: a lane's outermost span is a child of
     whatever span was open on the lane it was spliced into. *)
  let stacks : (int, open_span list) Hashtbl.t = Hashtbl.create 16 in
  let parent_lane : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let stack tid = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
  let rec enclosing tid =
    match stack tid with
    | top :: _ -> Some top
    | [] -> Option.bind (Hashtbl.find_opt parent_lane tid) enclosing
  in
  let last_ts = ref 0.0 in
  let saw_record = ref false in
  let record label dur =
    (if not (Hashtbl.mem acc label) then order := label :: !order);
    let count, total, self, durs =
      Option.value (Hashtbl.find_opt acc label) ~default:(0, 0.0, 0.0, [])
    in
    (* self is patched below: we add the full duration here and subtract
       child time as children close. *)
    Hashtbl.replace acc label (count + 1, total +. dur, self +. dur, dur :: durs)
  in
  let subtract_child label dur =
    match Hashtbl.find_opt acc label with
    | Some (count, total, self, durs) ->
        Hashtbl.replace acc label (count, total, self -. dur, durs)
    | None -> ()
  in
  List.iter
    (fun (where, j) ->
      let bad msg = raise (Bad_record (where ^ ": " ^ msg)) in
      (* Timestamps are what durations are computed from; a missing
         or non-numeric "ts" on a timing record means the trace is
         corrupt, so fail loudly rather than silently inventing a
         duration. Metadata ("M") and final samples ("C") stay
         lenient. *)
      let strict_ts () =
        match member "ts" j with
        | Some (Num f) -> f
        | Some _ -> bad "non-numeric \"ts\""
        | None -> bad "missing \"ts\""
      in
      (match num_field "ts" j with
      | Some f -> last_ts := Float.max !last_ts f
      | None -> ());
      let tid =
        match num_field "tid" j with Some f -> Float.to_int f | None -> 1
      in
      let label = Option.value (string_field "name" j) ~default:"?" in
      match string_field "ph" j with
      | Some "B" ->
          let ts = strict_ts () in
          saw_record := true;
          Hashtbl.replace stacks tid
            ({ olabel = label; ots = ts; children_us = 0.0 } :: stack tid)
      | Some "E" -> (
          let ts = strict_ts () in
          saw_record := true;
          match stack tid with
          | [] -> ()  (* unbalanced: ignore rather than fail *)
          | top :: rest ->
              let dur = Float.max 0.0 (ts -. top.ots) in
              record top.olabel dur;
              Hashtbl.replace stacks tid rest;
              (match enclosing tid with
              | Some parent -> parent.children_us <- parent.children_us +. dur
              | None -> ());
              (* children time is subtracted from this span's self *)
              subtract_child top.olabel top.children_us)
      | Some "X" -> (
          (* complete events: duration carried inline *)
          saw_record := true;
          match member "dur" j with
          | Some (Num dur) ->
              record label dur
          | Some _ -> bad "non-numeric \"dur\""
          | None -> bad "missing \"dur\"")
      | Some "i" | Some "I" ->
          ignore (strict_ts ());
          saw_record := true;
          (if not (Hashtbl.mem instants label) then
             instant_order := label :: !instant_order);
          Hashtbl.replace instants label
            (1 + Option.value (Hashtbl.find_opt instants label) ~default:0);
          (match Option.bind (member "args" j) (string_field "reason") with
          | Some reason ->
              let key = (label, reason) in
              (if not (Hashtbl.mem reasons key) then
                 reason_order := key :: !reason_order);
              Hashtbl.replace reasons key
                (1 + Option.value (Hashtbl.find_opt reasons key) ~default:0)
          | None -> ())
      | Some "C" -> (
          saw_record := true;
          match member "args" j with
          | Some args -> (
              match num_field "value" args with
              | Some v ->
                  let ns key = Option.value (num_field key args) ~default:0.0 in
                  (match string_field "kind" args with
                  | Some "histogram" ->
                      let h =
                        {
                          hcount = Float.to_int v;
                          sum_ns = ns "sum_ns";
                          max_ns = ns "max_ns";
                          p50_ns = ns "p50_ns";
                          p95_ns = ns "p95_ns";
                        }
                      in
                      histograms := (label, h) :: List.remove_assoc label !histograms
                  | kind ->
                      let dst = if kind = Some "gauge" then gauges else counters in
                      dst := (label, v) :: List.remove_assoc label !dst)
              | None -> ())
          | None -> ())
      | Some "M" ->
          saw_record := true;
          (match Option.bind (member "args" j) (num_field "parent") with
          | Some p -> Hashtbl.replace parent_lane tid (Float.to_int p)
          | None -> ())
      | Some _ -> saw_record := true
      | None -> bad "missing \"ph\"")
    records;
  if not !saw_record then raise (Bad_record "empty trace (no records)");
  let spans =
    List.rev_map
      (fun label ->
        let count, total, self, durs = Hashtbl.find acc label in
        {
          label;
          count;
          total_us = total;
          self_us = Float.max 0.0 self;
          durations_us = Array.of_list (List.rev durs);
        })
      !order
  in
  {
    spans;
    counters = List.sort compare !counters;
    gauges = List.sort compare !gauges;
    histograms = List.sort (fun (a, _) (b, _) -> String.compare a b) !histograms;
    events =
      List.rev_map
        (fun label -> (label, Hashtbl.find instants label))
        !instant_order;
    reasons =
      List.rev_map
        (fun ((label, reason) as key) ->
          (label, reason, Hashtbl.find reasons key))
        !reason_order;
    total_us = !last_ts;
  }

(* A file whose first non-blank byte is '[' is one JSON array;
   anything else is JSONL, parsed line by line so that an error names
   its line. *)
let records text =
  let parse_at where s =
    match parse s with Ok j -> j | Error msg -> raise (Bad_record (where ^ ": " ^ msg))
  in
  let numbered name l =
    List.mapi (fun i x -> (Printf.sprintf "%s %d" name (i + 1), x)) l
  in
  let trimmed = String.trim text in
  if String.starts_with ~prefix:"[" trimmed then
    parse_at "array" trimmed |> items |> Option.value ~default:[]
    |> numbered "record"
    |> List.filter (fun (_, j) -> j <> Obj [])
  else
    String.split_on_char '\n' text |> numbered "line"
    |> List.filter (fun (_, line) -> String.trim line <> "")
    |> List.map (fun (where, line) -> (where, parse_at where line))

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      try Ok (aggregate (records text)) with
      | Bad_record msg -> Error (path ^ ": " ^ msg))

let spans t = t.spans
let counters t = t.counters
let gauges t = t.gauges
let histograms t = t.histograms
let event_reasons t = t.reasons

(* --- rendering --------------------------------------------------------- *)

let ms us = us /. 1000.0

let render t =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "trace duration %.3f ms\n\n" (ms t.total_us));
  let by_self =
    List.sort
      (fun a b -> compare b.self_us a.self_us)
      t.spans
  in
  let pct part =
    if t.total_us <= 0.0 then 0.0 else 100.0 *. part /. t.total_us
  in
  (* Latency summary via the nearest-rank percentile (Qp_util.Stats):
     p50/p95/max of the per-span inclusive durations. *)
  let rows =
    List.map
      (fun s ->
        [
          s.label;
          string_of_int s.count;
          Printf.sprintf "%.3f" (ms s.total_us);
          Printf.sprintf "%.3f" (ms s.self_us);
          Printf.sprintf "%.1f" (pct s.self_us);
          Printf.sprintf "%.3f" (ms (Qp_util.Stats.percentile_nearest s.durations_us 50.0));
          Printf.sprintf "%.3f" (ms (Qp_util.Stats.percentile_nearest s.durations_us 95.0));
          Printf.sprintf "%.3f" (ms (Qp_util.Stats.maximum s.durations_us));
        ])
      by_self
  in
  Buffer.add_string b
    (Qp_util.Text_table.render
       ~header:
         [ "span"; "count"; "total ms"; "self ms"; "self %"; "p50 ms"; "p95 ms"; "max ms" ]
       rows);
  (match
     List.fold_left
       (fun acc s ->
         match acc with
         | Some best when best.count >= s.count -> acc
         | _ -> Some s)
       None t.spans
   with
  | Some hot when Array.length hot.durations_us > 1 ->
      Buffer.add_string b
        (Printf.sprintf "\n%s duration distribution (us, log counts):\n"
           hot.label);
      Buffer.add_string b
        (Qp_util.Histogram.render ~log_scale:true
           (Qp_util.Histogram.create ~buckets:10
              (Array.map int_of_float hot.durations_us)))
  | _ -> ());
  if t.counters <> [] then begin
    Buffer.add_string b "\ncounters:\n";
    Buffer.add_string b
      (Qp_util.Text_table.render ~header:[ "counter"; "value" ]
         (List.map
            (fun (k, v) ->
              [
                k;
                (if Float.is_integer v then Printf.sprintf "%.0f" v
                 else Printf.sprintf "%g" v);
              ])
            t.counters))
  end;
  if t.gauges <> [] then begin
    Buffer.add_string b "\ngauges (high-water marks):\n";
    Buffer.add_string b
      (Qp_util.Text_table.render ~header:[ "gauge"; "max" ]
         (List.map
            (fun (k, v) ->
              [
                k;
                (if Float.is_integer v then Printf.sprintf "%.0f" v
                 else Printf.sprintf "%g" v);
              ])
            t.gauges))
  end;
  if t.histograms <> [] then begin
    let us ns = Printf.sprintf "%.1f" (ns /. 1000.0) in
    Buffer.add_string b "\nstage histograms (out-of-band timings):\n";
    Buffer.add_string b
      (Qp_util.Text_table.render
         ~header:[ "stage"; "count"; "total ms"; "p50 us"; "p95 us"; "max us" ]
         (List.map
            (fun (k, h) ->
              [
                k;
                string_of_int h.hcount;
                Printf.sprintf "%.3f" (h.sum_ns /. 1e6);
                us h.p50_ns;
                us h.p95_ns;
                us h.max_ns;
              ])
            t.histograms))
  end;
  if t.events <> [] then begin
    Buffer.add_string b "\ninstant events:\n";
    Buffer.add_string b
      (Qp_util.Text_table.render ~header:[ "event"; "count" ]
         (List.map (fun (k, v) -> [ k; string_of_int v ]) t.events))
  end;
  if t.reasons <> [] then begin
    Buffer.add_string b "\ninstant events by reason:\n";
    Buffer.add_string b
      (Qp_util.Text_table.render ~header:[ "event"; "reason"; "count" ]
         (List.map
            (fun (k, reason, v) -> [ k; reason; string_of_int v ])
            t.reasons))
  end;
  Buffer.contents b

let report_file path = Result.map render (of_file path)

(* --- regression diff --------------------------------------------------- *)

type diff_row = {
  dlabel : string;
  old_count : int;  (* 0 when the label is new *)
  new_count : int;  (* 0 when the label disappeared *)
  old_self_us : float;
  new_self_us : float;
  old_p95_us : float;
  new_p95_us : float;
  flagged : bool;
}

type diff = {
  rows : diff_row list;
  threshold_pct : float;
  min_regression_us : float;
}

let p95_of s = Qp_util.Stats.percentile_nearest s.durations_us 95.0

let diff ?(threshold_pct = 25.0) ?(min_regression_us = 100.0) told tnew =
  let tbl_of t =
    let tbl = Hashtbl.create 32 in
    List.iter (fun s -> Hashtbl.replace tbl s.label s) t.spans;
    tbl
  in
  let old_tbl = tbl_of told and new_tbl = tbl_of tnew in
  (* New-trace first-seen order, then labels that disappeared. *)
  let labels =
    List.map (fun s -> s.label) tnew.spans
    @ List.filter_map
        (fun s -> if Hashtbl.mem new_tbl s.label then None else Some s.label)
        told.spans
  in
  let regressed old_v new_v =
    old_v > 0.0
    && new_v -. old_v > min_regression_us
    && (new_v -. old_v) /. old_v *. 100.0 > threshold_pct
  in
  let rows =
    List.map
      (fun label ->
        let o = Hashtbl.find_opt old_tbl label
        and n = Hashtbl.find_opt new_tbl label in
        let old_self = match o with Some s -> s.self_us | None -> 0.0
        and new_self = match n with Some s -> s.self_us | None -> 0.0
        and old_p95 = match o with Some s -> p95_of s | None -> 0.0
        and new_p95 = match n with Some s -> p95_of s | None -> 0.0 in
        {
          dlabel = label;
          old_count = (match o with Some s -> s.count | None -> 0);
          new_count = (match n with Some s -> s.count | None -> 0);
          old_self_us = old_self;
          new_self_us = new_self;
          old_p95_us = old_p95;
          new_p95_us = new_p95;
          (* Only flag labels present on both sides: a label appearing
             or vanishing is a workload change, not a regression. *)
          flagged =
            o <> None && n <> None
            && (regressed old_self new_self || regressed old_p95 new_p95);
        })
      labels
  in
  let rows =
    List.sort
      (fun a b ->
        Float.compare
          (b.new_self_us -. b.old_self_us)
          (a.new_self_us -. a.old_self_us))
      rows
  in
  { rows; threshold_pct; min_regression_us }

let diff_flagged d = List.filter (fun r -> r.flagged) d.rows

let render_diff d =
  let b = Buffer.create 4096 in
  let delta_pct old_v new_v =
    if old_v <= 0.0 then "-"
    else Printf.sprintf "%+.1f" ((new_v -. old_v) /. old_v *. 100.0)
  in
  let rows =
    List.map
      (fun r ->
        [
          r.dlabel;
          Printf.sprintf "%d>%d" r.old_count r.new_count;
          Printf.sprintf "%.3f" (ms r.old_self_us);
          Printf.sprintf "%.3f" (ms r.new_self_us);
          delta_pct r.old_self_us r.new_self_us;
          Printf.sprintf "%.3f" (ms r.old_p95_us);
          Printf.sprintf "%.3f" (ms r.new_p95_us);
          delta_pct r.old_p95_us r.new_p95_us;
          (if r.flagged then "!!"
           else if r.old_count = 0 then "new"
           else if r.new_count = 0 then "gone"
           else "");
        ])
      d.rows
  in
  Buffer.add_string b
    (Qp_util.Text_table.render
       ~header:
         [
           "span";
           "count";
           "self ms old";
           "self ms new";
           "d self %";
           "p95 ms old";
           "p95 ms new";
           "d p95 %";
           "flag";
         ]
       rows);
  let flagged = diff_flagged d in
  if flagged = [] then
    Buffer.add_string b
      (Printf.sprintf
         "\nno regressions beyond +%.0f%% (and > %.0f us) in self time or p95\n"
         d.threshold_pct d.min_regression_us)
  else
    Buffer.add_string b
      (Printf.sprintf
         "\nREGRESSION: %d label(s) slowed down more than +%.0f%% (and > %.0f us): %s\n"
         (List.length flagged) d.threshold_pct d.min_regression_us
         (String.concat ", " (List.map (fun r -> r.dlabel) flagged)));
  Buffer.contents b

let diff_files ?threshold_pct ?min_regression_us old_path new_path =
  match of_file old_path with
  | Error e -> Error e
  | Ok told -> (
      match of_file new_path with
      | Error e -> Error e
      | Ok tnew -> Ok (diff ?threshold_pct ?min_regression_us told tnew))
