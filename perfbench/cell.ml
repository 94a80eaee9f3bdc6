(* The cell workloads: one full Quick-profile cell, the work
   [qpricing run W] does — build the instance (data generation, query
   expansion, support sampling, every conflict set), then
   [Runner.run_cell] (valuation draw, six algorithms, bound, revenue).

   The untraced run times exactly those two public calls. The traced
   run re-drives the same cell step by step through each layer's public
   functions, under bench-owned spans, and must reproduce
   [Runner.run_cell]'s normalized revenues bit-for-bit. *)

module WI = Qp_experiments.Workload_instances
module Runner = Qp_experiments.Runner
module V = Qp_workloads.Valuations
module H = Qp_core.Hypergraph
module Rng = Qp_util.Rng

let model = V.Uniform_val 100.0

(* A cell's inputs (data, queries, support, valuations) are those of
   [qpricing run W] at the repository's default seed, whatever the
   benchmark seed: a cell's work depends on its inputs far more than
   on noise — across valuation draws of the same uniform instance LPIP
   takes 16 to 33 s, and one instance seed runs past two minutes — so
   seeding them would measure the inputs, not the program. *)
let seed = 42
let profile = Runner.Quick
let cip_budget = Option.value (Runner.cip_options profile).Qp_core.Cip.time_budget ~default:infinity

type spec = { key : string; jobs : int; scale : WI.scale }

let build spec = WI.build spec.key ~scale:spec.scale ~seed ()

(* One timed build after a collection, so garbage from the last build
   is not charged to this one. *)
let timed_build spec =
  Gc.full_major ();
  Pb.timed (fun () -> build spec)

(* More builds after the first until there are at least five and five
   seconds of them (at most fifteen); setup_s is their median. *)
let more_setups spec first =
  let rec go acc =
    let n = List.length acc in
    if n >= 5 && (n >= 15 || List.fold_left ( +. ) 0.0 acc >= 5.0) then acc
    else go (snd (timed_build spec) :: acc)
  in
  go [ first ]

(* --- correctness ---------------------------------------------------------- *)

(* Every revenue is at most the sum of valuations, and the normalized
   revenue vector must match the recorded reference. *)
let check_cell spec (cell : Runner.cell) =
  List.iter
    (fun (m : Runner.measurement) ->
      Pb.check
        (m.revenue >= 0.0 && m.revenue <= cell.sum_valuations *. (1.0 +. 1e-9))
        "%s %s revenue %.6f outside [0, sum of valuations %.6f]" cell.instance
        m.algorithm m.revenue cell.sum_valuations)
    cell.measurements;
  let vector = List.map (fun (m : Runner.measurement) -> m.normalized) cell.measurements in
  match Reference.find ~scale:spec.scale spec.key with
  | None ->
      Printf.printf "no reference recorded for %s; normalized revenues [%s]\n" spec.key
        (String.concat "; " (List.map (Printf.sprintf "%.17g") vector))
  | Some ref_vector ->
      let got = vector in
      Pb.check
        (List.length got = List.length ref_vector
        && List.for_all2
             (fun g r -> Float.abs (g -. r) <= 1e-9 *. Float.max 1e-12 (Float.abs r))
             got ref_vector)
        "%s normalized revenues [%s] differ from the reference [%s]" cell.instance
        (String.concat "; " (List.map (Printf.sprintf "%.17g") got))
        (String.concat "; " (List.map (Printf.sprintf "%.17g") ref_vector))

(* Budget guard: an algorithm run fails when it degraded to a fallback,
   or when CIP ran into its Quick time budget (capacities skipped). *)
let count_ops (cell : Runner.cell) =
  List.iter
    (fun (m : Runner.measurement) ->
      let over_budget = m.algorithm = "CIP" && m.seconds >= cip_budget in
      Pb.op (m.degraded = None && not over_budget))
    cell.measurements

(* --- untraced run ------------------------------------------------------- *)

(* One timed [Runner.run_cell]; a failed cell fails all its algorithm
   runs. *)
let price inst =
  match Pb.timed (fun () -> Runner.run_cell_result ~profile ~seed model inst) with
  | Ok cell, dt -> (Some cell, dt)
  | Error f, dt ->
      Printf.printf "%s\n" (Runner.pp_cell_failure f);
      List.iter (fun _ -> Pb.op false) (Runner.algorithms profile);
      (None, dt)

(* Build once and price (the work of [qpricing run W]), read the peak
   RSS, then build again for the setup median: the extra builds come
   after the peak is taken, so it is that of one build and its cell. *)
let run spec ~seconds =
  Pb.set_jobs spec.jobs;
  let inst, first = timed_build spec in
  let t0 = Pb.now_ns () in
  (* priced passes, as many as fit in [seconds] (at least one) *)
  let rec passes acc =
    let cell, dt = price inst in
    let acc = (cell, dt) :: acc in
    if Pb.since t0 +. dt > seconds || List.length acc >= 5 then List.rev acc
    else passes acc
  in
  let passes = passes [] in
  let peak_rss = Pb.peak_rss_mb "self" in
  let setups = more_setups spec first in
  let cells = List.filter_map fst passes in
  List.iter (check_cell spec) cells;
  List.iter count_ops cells;
  (* every pass prices the same inputs: the answers must agree *)
  (match cells with
  | first :: rest ->
      let vec (c : Runner.cell) =
        List.map (fun (m : Runner.measurement) -> Int64.bits_of_float m.normalized) c.measurements
      in
      List.iter
        (fun c -> Pb.check (vec c = vec first) "%s: passes disagree" first.instance)
        rest
  | [] -> ());
  let setup_s = Pb.median setups in
  let price_s = Pb.median (List.map snd passes) in
  Printf.printf "%s: %d setups (median %.3fs), %d priced passes (median %.3fs)\n"
    inst.WI.label (List.length setups) setup_s (List.length passes) price_s;
  Pb.metric "setup_s" "s" setup_s;
  Pb.metric "price_s" "s" price_s;
  Pb.metric "cell_s" "s" (setup_s +. price_s);
  (match cells with
  | cell :: _ ->
      let norm = List.map (fun (m : Runner.measurement) -> m.normalized) cell.measurements in
      List.iter
        (fun (m : Runner.measurement) ->
          Printf.printf "  %-13s normalized %.6f  %.3fs%s\n" m.algorithm m.normalized
            m.seconds
            (match m.degraded with None -> "" | Some d -> "  ! " ^ d))
        cell.measurements;
      Pb.metric "norm_revenue_best" "ratio" (List.fold_left Float.max 0.0 norm);
      Pb.metric "norm_revenue_mean" "ratio"
        (List.fold_left ( +. ) 0.0 norm /. Float.of_int (List.length norm));
      (* a request on a cell workload is one priced cell: its latency is
         a pass's time, and the rate is cells priced per second *)
      let pass_ms = Array.of_list (List.map (fun (_, dt) -> dt *. 1000.0) passes) in
      Pb.metric "latency_p50_ms" "ms" (Pb.median (Array.to_list pass_ms));
      Pb.metric "latency_p99_ms" "ms" (Pb.percentile pass_ms 99.0);
      Pb.metric "max_rate_rps" "1/s" (1.0 /. price_s)
  | [] -> ());
  Pb.metric "peak_rss_mb" "MiB" peak_rss;
  Pb.metric "ok_frac" "ratio"
    (1.0 -. (Float.of_int !Pb.failed /. Float.of_int (max 1 !Pb.attempted)))

(* --- traced, step-by-step run ----------------------------------------------- *)

(* Time [f] on the bench clock under a bench-owned span. *)
let step parts name f =
  let r, dt = Pb.timed (fun () -> Qp_obs.with_span ("bench." ^ name) f) in
  parts := (name, dt) :: !parts;
  r

(* Drive [Runner.run_cell]'s work for one valuation draw through the
   public functions in the runner's order. Returns, per algorithm, its
   key, normalized revenue and whether it failed (degraded, or an LP
   sweep that solved fewer LPs than it attempted); the LPIP and CIP
   sweep counts; the step times; and the wall time. XOS is synthesized
   from the LPIP and CIP pricings, as the runner does. *)
let step_cell inst =
  let parts = ref [] in
  let module A = Qp_core.Algorithms in
  let (normalized, lp_counts), wall =
    Pb.timed @@ fun () ->
    let rng = Rng.create seed in
    let h =
      step parts "valuations.apply" (fun () ->
          V.apply ~rng:(Rng.split rng "val-1") model inst.WI.hypergraph)
    in
    ignore (step parts "core.classes" (fun () -> H.classes h));
    let total = Float.max 1e-9 (H.sum_valuations h) in
    ignore (step parts "bounds.subadditive" (fun () -> Qp_core.Bounds.subadditive_bound h));
    let solved = Hashtbl.create 8 in
    let lp_counts = ref [] in
    let normalized =
      List.map
        (fun (spec : A.spec) ->
          let pricing, failed =
            step parts ("algo." ^ spec.key) (fun () ->
                match spec.key with
                | "lpip" ->
                    let r = Qp_core.Lpip.solve_report ~options:(Runner.lpip_options profile) h in
                    lp_counts := ("lpip", (r.solved, r.attempted)) :: !lp_counts;
                    (r.pricing, r.degraded <> None || r.solved < r.attempted)
                | "cip" ->
                    let r = Qp_core.Cip.solve_report ~options:(Runner.cip_options profile) h in
                    lp_counts := ("cip", (r.solved, r.attempted)) :: !lp_counts;
                    (r.pricing, r.degraded <> None || r.solved < r.attempted)
                | "xos" -> (
                    match
                      Qp_core.Xos.combine_safe
                        [ Hashtbl.find solved "lpip"; Hashtbl.find solved "cip" ]
                    with
                    | Some (p, dropped) -> (p, dropped > 0)
                    | None -> (Qp_core.Uip.solve h, true))
                | _ ->
                    let p, degraded = spec.solve_report h in
                    (p, degraded <> None))
          in
          Hashtbl.replace solved spec.key pricing;
          let revenue = step parts "pricing.revenue" (fun () -> Qp_core.Pricing.revenue pricing h) in
          (spec.key, revenue /. total, failed))
        (Runner.algorithms profile)
    in
    (normalized, !lp_counts)
  in
  (normalized, lp_counts, List.rev !parts, wall)
