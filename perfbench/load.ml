(* The serving workload: a standing [qpricing serve] broker in a child
   process, driven over one connection by an open-loop generator —
   independent buyers arriving on a seeded Poisson schedule at a ladder
   of fixed rates, 90% [PRICE i] and 10% [QUOTE <sql of query i>].

   Every reply is checked after its rate phase (not inline, so the
   checks take no CPU from the generator) against an oracle broker
   loaded in-process from the server's own snapshot. *)

module WI = Qp_experiments.Workload_instances
module SB = Qp_serve.Broker
module SS = Qp_serve.Server
module SP = Qp_serve.Protocol
module Rng = Qp_util.Rng

let model = Cell.model
let quote_share = 0.10
let limit_ms = 5.0

(* Fixed request rates, lowest first; the top one is over the broker's
   capacity on the skewed workload. Latencies are reported at the
   second-lowest rate. *)
let rates = [ 1000; 2000; 4000; 6000; 8000; 12000 ]

(* A phase stops sending once this many requests are outstanding: the
   rate is then over capacity, and the cap bounds both the drain and
   the server's pending bytes (below its default shedding mark). *)
let max_outstanding = 2000

let scale_name = function WI.Tiny -> "tiny" | WI.Default -> "default"

(* --- the child server ------------------------------------------------------ *)

type server = { pid : int; sock : string; snap : string; log : string }

let live : int list ref = ref []

let reap pid =
  live := List.filter (( <> ) pid) !live;
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* Whatever path exits, no server outlives the benchmark. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live)

let spawn ~qpricing ~workload ~scale ~seed ~pricing ~tag =
  let sock = Pb.work_file (tag ^ ".sock") in
  let snap = Pb.work_file (tag ^ ".snap") in
  let log = Pb.work_file (tag ^ ".log") in
  Pb.remove_quietly snap;
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| qpricing; "serve"; workload; "--scale"; scale_name scale; "--seed";
       string_of_int seed; "--pricing"; pricing; "--socket"; sock; "--snapshot";
       snap |]
  in
  let pid = Unix.create_process qpricing args null out out in
  Unix.close out;
  Unix.close null;
  live := pid :: !live;
  { pid; sock; snap; log }

let alive s =
  match Unix.waitpid [ Unix.WNOHANG ] s.pid with
  | 0, _ -> true
  | _ -> live := List.filter (( <> ) s.pid) !live; false
  | exception Unix.Unix_error _ -> false

let show_log s =
  match open_in s.log with
  | exception Sys_error _ -> ()
  | ic ->
      (try
         while true do
           prerr_endline ("  server: " ^ input_line ic)
         done
       with End_of_file -> ());
      close_in ic

(* Seconds from spawn until the broker answers HEALTH with [serving]. *)
let wait_serving s t_spawn =
  let listen = SS.Unix_socket s.sock in
  let rec go () =
    if not (alive s) then begin
      show_log s;
      Pb.die "the server exited before serving"
    end;
    if Pb.since t_spawn > 170.0 then Pb.die "the server did not come up";
    match SS.connect ~retries:0 listen with
    | exception Unix.Unix_error _ ->
        Unix.sleepf 0.002;
        go ()
    | c -> (
        let r = SS.call c SP.Health in
        SS.close_client c;
        match r with
        | Ok (SP.Health_reply SP.Serving) -> Pb.since t_spawn
        | _ ->
            Unix.sleepf 0.002;
            go ())
  in
  go ()

let start ~qpricing ~workload ~scale ~seed ~pricing ~tag =
  let t0 = Pb.now_ns () in
  let s = spawn ~qpricing ~workload ~scale ~seed ~pricing ~tag in
  let dt = wait_serving s t0 in
  (s, dt)

let control s req =
  let c = SS.connect ~retries:0 (SS.Unix_socket s.sock) in
  Fun.protect ~finally:(fun () -> SS.close_client c) (fun () -> SS.call c req)

let stop s =
  (match control s SP.Shutdown with _ -> () | exception Unix.Unix_error _ -> ());
  let t0 = Pb.now_ns () in
  while alive s && Pb.since t0 < 10.0 do
    Unix.sleepf 0.005
  done;
  if alive s then (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap s.pid;
  List.iter Pb.remove_quietly [ s.sock; s.snap; s.log ]

(* --- requests ------------------------------------------------------------ *)

type kind = Price of int | Quote of string

type request = { due : int64; kind : kind; line : string }

type reply = {
  req : request;
  due_at : int64;  (* absolute due time *)
  got : int64;
  text : string;
}

let make_request sqls ~due rng n =
  let i = Rng.int rng n in
  if Rng.float rng 1.0 < quote_share then
    let sql = sqls.(i) in
    { due; kind = Quote sql; line = "QUOTE " ^ sql }
  else { due; kind = Price i; line = Printf.sprintf "PRICE %d" i }

(* The seeded Poisson schedule of one rate phase, due times relative to
   the phase start. *)
let schedule ~seed ~rate ~seconds sqls n =
  let rng = Rng.split (Rng.create seed) (Printf.sprintf "rate-%d" rate) in
  let mean_gap = 1e9 /. Float.of_int rate in
  let horizon = seconds *. 1e9 in
  let rec go t acc =
    let gap = -.mean_gap *. Float.log (1.0 -. Rng.float rng 1.0) in
    let t = t +. gap in
    if t >= horizon then Array.of_list (List.rev acc)
    else go t (make_request sqls ~due:(Int64.of_float t) rng n :: acc)
  in
  go 0.0 []

type phase = {
  replies : reply list;
  abandoned : bool;  (* stopped sending: backlog hit the cap *)
  backlog_max : int;
  late_ms : float array;  (* send time - due time, per request *)
}

(* Drive one phase over a fresh non-blocking connection, as a single
   generator thread: send each request when it falls due (due times are
   offsets from the phase start; all zero makes a closed batch, sent as
   fast as the socket takes it) or, with [in_flight], whenever fewer
   than that many are outstanding (a closed loop); read replies as they
   come — the server answers a connection in order. *)
let drive ?in_flight s (reqs : request array) =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX s.sock);
  Unix.set_nonblock fd;
  (* collect now, not in the middle of the phase *)
  Gc.full_major ();
  let n = Array.length reqs in
  let sent = Array.make n 0L in
  let out = Buffer.create 65536 in
  let out_off = ref 0 in
  let inbuf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let next = ref 0 and received = ref 0 in
  let replies = ref [] and backlog_max = ref 0 and abandoned = ref false in
  let base = Pb.now_ns () in
  (* a closed loop times each request from its send *)
  let due i = match in_flight with Some _ -> sent.(i) | None -> Int64.add base reqs.(i).due in
  let may_send () =
    match in_flight with
    | Some k -> !next - !received < k
    | None -> Int64.compare (Int64.add base reqs.(!next).due) (Pb.now_ns ()) <= 0
  in
  let eof = ref false in
  while (not !eof) && !received < (if !abandoned then !next else n) do
    let now = Pb.now_ns () in
    while (not !abandoned) && !next < n && may_send () do
      if !next - !received >= max_outstanding then abandoned := true
      else begin
        Buffer.add_string out reqs.(!next).line;
        Buffer.add_char out '\n';
        sent.(!next) <- now;
        incr next
      end
    done;
    backlog_max := max !backlog_max (!next - !received);
    let pending = Buffer.length out - !out_off in
    if pending > 0 then begin
      match Unix.write_substring fd (Buffer.contents out) !out_off pending with
      | k ->
          out_off := !out_off + k;
          if !out_off = Buffer.length out then begin
            Buffer.clear out;
            out_off := 0
          end
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    end;
    (* Spin (zero timeout) while requests remain to be sent: waking from
       a sleep can take milliseconds on a virtual machine, which would be
       charged to every late request. *)
    let timeout = if (not !abandoned) && !next < n then 0.0 else 0.05 in
    let wr = if Buffer.length out > !out_off then [ fd ] else [] in
    match Unix.select [ fd ] wr [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, _, _ when r <> [] -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> eof := true
        | k ->
            let got = Pb.now_ns () in
            Buffer.add_subbytes inbuf chunk 0 k;
            let data = Buffer.contents inbuf in
            let rec lines start =
              match String.index_from_opt data start '\n' with
              | None -> start
              | Some j ->
                  let i = !received in
                  replies :=
                    { req = reqs.(i); due_at = due i; got;
                      text = String.sub data start (j - start) }
                    :: !replies;
                  incr received;
                  lines (j + 1)
            in
            let rest = lines 0 in
            Buffer.clear inbuf;
            Buffer.add_string inbuf (String.sub data rest (String.length data - rest))
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
    | _ -> ()
  done;
  let late_ms =
    Array.init !next (fun i -> Pb.seconds_between (due i) sent.(i) *. 1000.0)
  in
  if !eof then Pb.check false "the server closed the connection mid-phase";
  { replies = List.rev !replies; abandoned = !abandoned; backlog_max = !backlog_max; late_ms }

(* Latency of one request, timed from when it fell due. *)
let latency_ms r = Pb.seconds_between r.due_at r.got *. 1000.0

(* --- checks --------------------------------------------------------------- *)

let same_quote (a : SP.quote) (b : SP.quote) =
  Int64.bits_of_float a.price = Int64.bits_of_float b.price
  && a.size = b.size && a.sold = b.sold

(* One operation per request: a transport error, an ERR reply or a reply
   that differs from the oracle is a failure, and a differing reply also
   fails the correctness check. QUOTE answers are memoized per SQL text
   — the oracle is a pure function of it. *)
let check_replies oracle sql_cache (p : phase) =
  List.iter
    (fun r ->
      let expected =
        match r.req.kind with
        | Price i -> Ok (SB.quote_index oracle i)
        | Quote sql -> (
            match Hashtbl.find_opt sql_cache sql with
            | Some q -> q
            | None ->
                let q = SB.quote_sql oracle sql in
                Hashtbl.replace sql_cache sql q;
                q)
      in
      let ok =
        match (SP.parse_response r.text, expected) with
        | Ok (SP.Quote_reply q), Ok e ->
            (* a served quote that differs from the oracle is a wrong answer *)
            let same = same_quote q e in
            Pb.check same "reply %S to %S differs from the oracle" r.text r.req.line;
            same
        | _ ->
            Printf.printf "failed request %S: %S\n" r.req.line r.text;
            false
      in
      Pb.op ok)
    p.replies;
  Pb.check (not p.abandoned || p.replies <> []) "a phase produced no replies"

(* --- the oracle and the request pool --------------------------------------- *)

type standing = {
  oracle : SB.t;
  sqls : string array;  (* SQL text of every standing query *)
  sum_valuations : float;
  restore_ms : float;
}

(* Load the server's own snapshot in-process as the oracle; [inst], the
   instance the server stands on, gives the query SQL and, under the
   broker's valuation draw, the valuation total. *)
let standing ~workload ~scale ~seed ~pricing (s : server) inst =
  let config =
    { Qp_serve.Snapshot.workload; scale; support = None; seed; model; pricing;
      profile = Cell.profile }
  in
  let loaded, restore_s = Pb.timed (fun () -> SB.load_snapshot ~file:s.snap config) in
  let oracle =
    match loaded with
    | Ok b -> b
    | Error e ->
        Pb.die "cannot load the server's snapshot: %s"
          (Qp_serve.Snapshot.describe_load_error e)
  in
  let h = Qp_workloads.Valuations.apply ~rng:(Rng.create seed) model inst.WI.hypergraph in
  let sqls = Array.of_list (List.map Qp_relational.Query.to_sql inst.WI.queries) in
  Pb.check (Array.length sqls = SB.queries oracle) "query count differs from the served hyperedges";
  { oracle; sqls; sum_valuations = Qp_core.Hypergraph.sum_valuations h;
    restore_ms = restore_s *. 1000.0 }

(* --- the ladder and the closed batch -------------------------------------- *)

type rung = { rate : int; p50 : float; p99 : float; phase : phase }

(* Percentiles are taken per window of [window] consecutive requests
   (so a p99 has ten samples beyond it) and the median over the windows
   is reported: a virtual machine's scheduler stalls a process for
   milliseconds now and then, and one stall should not set the figure
   for a whole phase. *)
let window = 1000

let windowed p lats =
  let n = Array.length lats in
  let k = max 1 (n / window) in
  Pb.median
    (List.init k (fun w ->
         let lo = w * n / k and hi = (w + 1) * n / k in
         Pb.percentile (Array.sub lats lo (hi - lo)) p))

(* The reporting rate (the second-lowest) gets [report_share] of the
   measuring time, split with the other rates' one share each. *)
let report_share = 3

let phase_lengths seconds =
  let shares = Float.of_int (List.length rates - 1 + report_share) in
  List.mapi
    (fun i _ -> seconds /. shares *. Float.of_int (if i = 1 then report_share else 1))
    rates

let ladder ~seed ~seconds s st sql_cache =
  List.map2
    (fun rate phase_s ->
      let reqs = schedule ~seed ~rate ~seconds:phase_s st.sqls (SB.queries st.oracle) in
      let phase = drive s reqs in
      check_replies st.oracle sql_cache phase;
      let lats = Array.of_list (List.map latency_ms phase.replies) in
      let p50 = windowed 50.0 lats and p99 = windowed 99.0 lats in
      Printf.printf
        "  rate %5d/s: %6d replies  p50 %.3fms  p99 %.3fms  (median of %d windows)  \
         generator late p99 %.3fms  backlog<=%d%s\n%!"
        rate (Array.length lats) p50 p99
        (max 1 (Array.length lats / window))
        (Pb.percentile phase.late_ms 99.0) phase.backlog_max
        (if phase.abandoned then "  (over capacity: stopped sending)" else "");
      { rate; p50; p99; phase })
    rates (phase_lengths seconds)

(* A rate is sustained when its phase ran to the end with p99 within the
   limit and every request answered correctly. *)
let max_rate rungs =
  List.fold_left
    (fun acc r ->
      let ok_replies =
        List.for_all
          (fun rep -> match SP.parse_response rep.text with Ok (SP.Quote_reply _) -> true | _ -> false)
          r.phase.replies
      in
      if (not r.phase.abandoned) && r.p99 <= limit_ms && ok_replies then Float.of_int r.rate
      else acc)
    0.0 rungs

(* The serving counterpart of pricing a cell: every standing query once
   as [PRICE i] in seeded order, each index divisible by nine followed
   by a QUOTE of a seeded query, sent as one closed batch; the time
   until the last reply is the price time, and the sold prices give the
   served pricing's revenue. *)
let batch ~seed st =
  let n = SB.queries st.oracle in
  let order = Array.init n (fun i -> i) in
  let rng = Rng.split (Rng.create seed) "batch" in
  Rng.shuffle rng order;
  Array.to_list order
  |> List.concat_map (fun i ->
         let p = { due = 0L; kind = Price i; line = Printf.sprintf "PRICE %d" i } in
         if i mod 9 = 0 then
           let j = Rng.int rng n in
           [ p; { due = 0L; kind = Quote st.sqls.(j); line = "QUOTE " ^ st.sqls.(j) } ]
         else [ p ])
  |> Array.of_list

let run_batch s st sql_cache reqs =
  let phase, dt = Pb.timed (fun () -> drive s reqs) in
  check_replies st.oracle sql_cache phase;
  let revenue =
    List.fold_left
      (fun acc r ->
        match (r.req.kind, SP.parse_response r.text) with
        | Price _, Ok (SP.Quote_reply { price; sold = Some true; _ }) -> acc +. price
        | _ -> acc)
      0.0 phase.replies
  in
  (dt, revenue /. st.sum_valuations)

(* --- the workload ------------------------------------------------------------ *)

type session = {
  server : server;
  st : standing;
  setups : float list;
  sql_cache : (string, (SP.quote, string) result) Hashtbl.t;
}

(* Start the broker [n_setups] times (each from a fresh snapshot file,
   so each pays the full build, precompute and checkpoint) and keep the
   last one up. [inst] is the instance the server stands on, built
   in-process for the oracle. *)
let session ~qpricing ~workload ~scale ~seed ~pricing ~n_setups inst =
  let rec setups k acc =
    let s, dt = start ~qpricing ~workload ~scale ~seed ~pricing ~tag:workload in
    if k >= n_setups then (s, List.rev (dt :: acc))
    else begin
      stop s;
      setups (k + 1) (dt :: acc)
    end
  in
  let server, setups = setups 1 [] in
  let st = standing ~workload ~scale ~seed ~pricing server inst in
  { server; st; setups; sql_cache = Hashtbl.create 1024 }

let workload = "skewed"
let pricing = "lpip"

(* The seeded 90/10 PRICE/QUOTE mix, without a schedule. *)
let mix ~seed ~n st =
  let rng = Rng.split (Rng.create seed) "mix" in
  Array.init n (fun _ -> make_request st.sqls ~due:0L rng (SB.queries st.oracle))

(* Requests of the closed loop (one in flight), whose latency quantiles
   are the workload's latency figures. *)
let closed_requests = 20_000

let run ~qpricing ~scale ~seed ~seconds =
  Pb.set_jobs 1;
  let inst = WI.build workload ~scale ~seed:Cell.seed () in
  let ss = session ~qpricing ~workload ~scale ~seed:Cell.seed ~pricing ~n_setups:5 inst in
  let t0 = Pb.now_ns () in
  let closed = drive ~in_flight:1 ss.server (mix ~seed ~n:closed_requests ss.st) in
  check_replies ss.st.oracle ss.sql_cache closed;
  let lats = Array.of_list (List.map latency_ms closed.replies) in
  (* closed batches until the measuring time is spent, at least three *)
  let reqs = batch ~seed ss.st in
  let rec batches acc =
    let acc = run_batch ss.server ss.st ss.sql_cache reqs :: acc in
    if List.length acc >= 3 && Pb.since t0 >= seconds then acc else batches acc
  in
  let batches = batches [] in
  let rss = Pb.peak_rss_mb (string_of_int ss.server.pid) in
  stop ss.server;
  let setup_s = Pb.median ss.setups in
  let price_s = Pb.median (List.map fst batches) in
  let norm = snd (List.hd batches) in
  List.iter
    (fun (_, n) -> Pb.check (Int64.bits_of_float n = Int64.bits_of_float norm) "batches disagree on revenue")
    batches;
  let expected = List.assoc scale Reference.served in
  Pb.check
    (Float.abs (norm -. expected) <= 1e-9 *. expected)
    "served normalized revenue %.17g differs from the reference %.17g" norm expected;
  let p50 = Pb.percentile lats 50.0 and p99 = Pb.percentile lats 99.0 in
  Printf.printf
    "serve %s/%s: setups %s; closed loop %d requests p50 %.3fms p99 %.3fms; %d batches of %d \
     requests, median %.3fs; normalized revenue %.6f\n"
    workload pricing
    (String.concat " " (List.map (Printf.sprintf "%.3fs") ss.setups))
    (Array.length lats) p50 p99 (List.length batches) (Array.length reqs) price_s norm;
  Pb.metric "setup_s" "s" setup_s;
  Pb.metric "price_s" "s" price_s;
  Pb.metric "cell_s" "s" (setup_s +. price_s);
  Pb.metric "norm_revenue_best" "ratio" norm;
  Pb.metric "norm_revenue_mean" "ratio" norm;
  Pb.metric "peak_rss_mb" "MiB" rss;
  Pb.metric "latency_p50_ms" "ms" p50;
  Pb.metric "latency_p99_ms" "ms" p99;
  Pb.metric "max_rate_rps" "1/s" (Float.of_int (Array.length reqs) /. price_s);
  Pb.metric "ok_frac" "ratio"
    (1.0 -. (Float.of_int !Pb.failed /. Float.of_int (max 1 !Pb.attempted)))
