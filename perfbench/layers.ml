(* The traced run: per-layer metrics for every workload.

   Each workload's traced run (1) drives its instance's cell step by step
   with Qp_obs on, aggregated with Qp_obs_report — the build, LP and
   core layers — and (2) stands the instance up behind [qpricing serve]
   and drives it over the socket — the serving layer. On serve-skewed
   the cell is the skewed instance the broker stands on; on the cell
   workloads the broker serves the cheap UIP pricing, so the probe
   measures the request path on that instance and not a second sweep. *)

module WI = Qp_experiments.Workload_instances
module Runner = Qp_experiments.Runner
module R = Qp_obs_report
module SB = Qp_serve.Broker
module SP = Qp_serve.Protocol
module SS = Qp_serve.Server

(* --- trace aggregation ------------------------------------------------------ *)

let with_trace f =
  Qp_obs.reset ();
  Qp_obs.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Qp_obs.set_enabled false) f in
  let file = Pb.work_file "trace.jsonl" in
  Qp_obs.write_chrome_trace file;
  Qp_obs.reset ();
  let report = match R.of_file file with Ok t -> t | Error e -> Pb.die "trace: %s" e in
  Pb.remove_quietly file;
  (r, report)

let span report label = List.find_opt (fun (s : R.span_stat) -> s.label = label) (R.spans report)

let self_s report label =
  match span report label with Some s -> s.self_us /. 1e6 | None -> 0.0

let max_s report label =
  match span report label with
  | Some s -> Array.fold_left Float.max 0.0 s.durations_us /. 1e6
  | None -> 0.0

let counter report name = Option.value (List.assoc_opt name (R.counters report)) ~default:0.0
let ratio a b = if b > 0.0 then a /. b else 0.0

let lp_metrics report =
  let pivots = counter report "simplex.pivots" in
  let refactors = counter report "simplex.refactorizations" in
  let hits = counter report "simplex.warm_hit" and misses = counter report "simplex.warm_miss" in
  Pb.metric "lp.solves" "count" (counter report "simplex.solves");
  Pb.metric "lp.pivots" "count" pivots;
  Pb.metric "lp.refactorizations" "count" refactors;
  Pb.metric "lp.refactor_per_pivot" "ratio" (ratio refactors pivots);
  Pb.metric "lp.warm_hit_ratio" "ratio" (ratio hits (hits +. misses));
  Pb.metric "lp.primal_s" "s" (self_s report "simplex.solve");
  Pb.metric "lp.dual_s" "s" (self_s report "simplex.dual_phase");
  Pb.metric "lp.max_solve_s" "s" (max_s report "simplex.solve")

let build_metrics (inst : WI.t) ~setup_s =
  let bs = inst.build_stats in
  Pb.metric "instance.datagen_support_s" "s" (setup_s -. bs.elapsed);
  Pb.metric "conflict.build_s" "s" bs.elapsed;
  Pb.metric "conflict.query_p50_ms" "ms" (Pb.percentile bs.query_seconds 50.0 *. 1000.0);
  Pb.metric "conflict.query_p95_ms" "ms" (Pb.percentile bs.query_seconds 95.0 *. 1000.0);
  Pb.metric "conflict.queries" "count" (Float.of_int bs.queries);
  Pb.metric "parallel.busy_frac" "ratio"
    (ratio (Array.fold_left ( +. ) 0.0 bs.worker_busy) (Float.of_int bs.jobs *. bs.elapsed))

(* --- the cell, step by step ------------------------------------------------- *)

let algo_keys = [ "ubp"; "uip"; "lpip"; "cip"; "layering"; "xos" ]

(* An untraced reference pass (build + [Runner.run_cell]), then the same
   cell traced and step by step, which must match it bit-for-bit. *)
let cell_layers (spec : Cell.spec) =
  Pb.set_jobs spec.jobs;
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let inst, setup_u = Pb.timed (fun () -> Cell.build spec) in
  let cell, price_u = Cell.price inst in
  let g1 = Gc.quick_stat () in
  Pb.metric "gc.minor_words" "words" (g1.minor_words -. g0.minor_words);
  Pb.metric "gc.major_collections" "count"
    (Float.of_int (g1.major_collections - g0.major_collections));
  build_metrics inst ~setup_s:setup_u;
  Gc.full_major ();
  let (setup_t, (normalized, counts, parts, wall)), report =
    with_trace (fun () ->
        let inst_t, setup_t = Pb.timed (fun () -> Cell.build spec) in
        (setup_t, Cell.step_cell inst_t))
  in
  List.iter (fun (_, _, failed) -> Pb.op (not failed)) normalized;
  (match cell with
  | None -> Pb.check false "%s: the reference cell failed" spec.key
  | Some cell ->
      Cell.check_cell spec cell;
      Cell.count_ops cell;
      List.iter2
        (fun (m : Runner.measurement) (key, n, _) ->
          Pb.check
            (Int64.bits_of_float m.normalized = Int64.bits_of_float n)
            "%s: step-by-step %s normalized %.17g differs from Runner.run_cell's %.17g"
            spec.key key n m.normalized)
        cell.measurements normalized);
  lp_metrics report;
  let part name =
    List.fold_left (fun acc (n, dt) -> if n = name then acc +. dt else acc) 0.0 parts
  in
  List.iter (fun k -> Pb.metric ("algo." ^ k ^ "_s") "s" (part ("algo." ^ k))) algo_keys;
  List.iter
    (fun n -> Pb.metric (n ^ "_s") "s" (part n))
    [ "core.classes"; "bounds.subadditive"; "pricing.revenue"; "valuations.apply" ];
  let attributed = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 parts in
  Pb.metric "runner.unattributed_s" "s" (wall -. attributed);
  let count key f = Float.of_int (match List.assoc_opt key counts with Some c -> f c | None -> 0) in
  Pb.metric "lpip.candidates_solved" "count" (count "lpip" fst);
  Pb.metric "lpip.candidates_attempted" "count" (count "lpip" snd);
  Pb.metric "cip.capacities_solved" "count" (count "cip" fst);
  Pb.metric "cip.capacities_attempted" "count" (count "cip" snd);
  let untraced = setup_u +. price_u in
  Pb.metric "trace.overhead_frac" "ratio" ((setup_t +. wall -. untraced) /. untraced);
  Printf.printf
    "%s traced: setup %.3fs, step-by-step %.3fs (unattributed %.6fs); untraced %.3fs + %.3fs\n%!"
    spec.key setup_t wall (wall -. attributed) setup_u price_u;
  inst

(* --- the serving layer ------------------------------------------------------- *)

let stat stats name = Float.of_int (Option.value (List.assoc_opt name stats) ~default:0)

(* In-process [Broker.handle] time per request line, by verb. *)
let handle_times oracle (reqs : Load.request list) =
  let prices = ref [] and quotes = ref [] in
  List.iter
    (fun (r : Load.request) ->
      let _, dt = Pb.timed (fun () -> SB.handle oracle r.line) in
      match r.kind with
      | Load.Price _ -> prices := dt :: !prices
      | Load.Quote _ -> quotes := dt :: !quotes)
    reqs;
  (Pb.median !prices, Pb.median !quotes)

let serve_layers ~qpricing ~workload ~scale ~seed ~pricing ~seconds ~traffic_seed inst =
  let ss = Load.session ~qpricing ~workload ~scale ~seed ~pricing ~n_setups:1 inst in
  let rungs = Load.ladder ~seed:traffic_seed ~seconds ss.server ss.st ss.sql_cache in
  let samples =
    let c = SS.connect ~retries:0 (SS.Unix_socket ss.server.sock) in
    Fun.protect ~finally:(fun () -> SS.close_client c) @@ fun () ->
    match SS.scrape c with
    | Error e -> Pb.die "METRICS scrape failed: %s" e
    | Ok body -> (
        match Qp_serve.Metrics.parse body with
        | Ok s -> s
        | Error e -> Pb.die "METRICS body does not parse: %s" e)
  in
  let stats =
    match Load.control ss.server SP.Stats with
    | Ok (SP.Stats_reply s) -> s
    | _ -> Pb.die "STATS failed"
  in
  let snapshot_bytes = Pb.file_size ss.server.snap in
  Load.stop ss.server;
  let sample name = Option.value (Qp_serve.Metrics.find samples name) ~default:Float.nan in
  let second = List.nth rungs 1 in
  Pb.metric "serve.max_rate_open_rps" "1/s" (Load.max_rate rungs);
  let server_p50_us = stat stats "p50_ns" /. 1000.0 in
  Pb.metric "serve.server_p50_us" "us" server_p50_us;
  Pb.metric "serve.server_p99_us" "us" (stat stats "p99_ns" /. 1000.0);
  Pb.metric "serve.wire_overhead_us" "us" ((second.p50 *. 1000.0) -. server_p50_us);
  Pb.metric "serve.requests" "count" (sample "qp_serve_requests_total");
  Pb.metric "serve.errors" "count" (sample "qp_serve_errors_total");
  Pb.metric "serve.shed" "count" (sample "qp_serve_shed_total");
  Pb.metric "serve.backlog_max" "count"
    (Float.of_int (List.fold_left (fun acc (r : Load.rung) -> max acc r.phase.backlog_max) 0 rungs));
  Pb.metric "serve.gen_late_ms_p99" "ms"
    (Pb.percentile (Array.concat (List.map (fun (r : Load.rung) -> r.phase.late_ms) rungs)) 99.0);
  List.iter
    (fun (r : Load.rung) -> Pb.metric (Printf.sprintf "serve.p99_ms.r%d" r.rate) "ms" r.p99)
    rungs;
  let price_s, quote_s =
    handle_times ss.st.oracle (List.map (fun (r : Load.reply) -> r.req) second.phase.replies)
  in
  Pb.metric "serve.handle_price_us_p50" "us" (price_s *. 1e6);
  Pb.metric "serve.handle_quote_ms_p50" "ms" (quote_s *. 1000.0);
  let broker, precompute_s =
    Pb.timed (fun () -> SB.of_instance ~profile:Cell.profile ~model:Cell.model ~pricing ~seed inst)
  in
  Pb.metric "serve.precompute_s" "s" precompute_s;
  let file = Pb.work_file "save.snap" in
  let config =
    { Qp_serve.Snapshot.workload; scale; support = None; seed; model = Cell.model; pricing;
      profile = Cell.profile }
  in
  let saved, save_s = Pb.timed (fun () -> SB.save_snapshot ~file ~config broker) in
  Pb.check (saved = Ok ()) "in-process snapshot save failed";
  Pb.remove_quietly file;
  Pb.metric "snapshot.save_ms" "ms" (save_s *. 1000.0);
  Pb.metric "snapshot.restore_ms" "ms" ss.st.restore_ms;
  Pb.metric "snapshot.bytes" "bytes" snapshot_bytes
