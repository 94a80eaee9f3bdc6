(* The repository benchmark: three workloads end to end, or layer by
   layer with --trace 1. See perfbench/README.md.

   perfbench --workload (cell-ssb|cell-uniform|serve-skewed) --seed N
             --seconds S --trace (0|1) --qpricing PATH
   perfbench --smoke --qpricing PATH

   The last stdout line is one JSON object {correct, attempted, failed,
   metrics}. A failed correctness check prints [correct: false] and
   exits 1; a bad invocation or environment exits 2 without a result. *)

module WI = Qp_experiments.Workload_instances

let end_to_end =
  [ "setup_s"; "price_s"; "cell_s"; "norm_revenue_best"; "norm_revenue_mean";
    "peak_rss_mb"; "ok_frac"; "latency_p50_ms"; "latency_p99_ms"; "max_rate_rps" ]

let per_layer =
  [ "instance.datagen_support_s"; "conflict.build_s"; "conflict.query_p50_ms";
    "conflict.query_p95_ms"; "conflict.queries"; "parallel.busy_frac"; "lp.solves";
    "lp.pivots"; "lp.refactorizations"; "lp.refactor_per_pivot"; "lp.warm_hit_ratio";
    "lp.primal_s"; "lp.dual_s"; "lp.max_solve_s"; "core.classes_s"; "algo.ubp_s";
    "algo.uip_s"; "algo.lpip_s"; "algo.cip_s"; "algo.layering_s"; "algo.xos_s";
    "bounds.subadditive_s"; "pricing.revenue_s"; "valuations.apply_s";
    "cip.capacities_solved"; "cip.capacities_attempted"; "lpip.candidates_solved";
    "lpip.candidates_attempted"; "runner.unattributed_s"; "serve.handle_quote_ms_p50";
    "serve.handle_price_us_p50"; "serve.server_p50_us"; "serve.server_p99_us";
    "serve.wire_overhead_us"; "serve.backlog_max"; "serve.gen_late_ms_p99";
    "serve.max_rate_open_rps";
    "serve.precompute_s"; "snapshot.save_ms"; "snapshot.restore_ms"; "snapshot.bytes";
    "serve.requests"; "serve.errors"; "serve.shed" ]
  @ List.map (Printf.sprintf "serve.p99_ms.r%d") Load.rates
  @ [ "gc.minor_words"; "gc.major_collections"; "trace.overhead_frac" ]

let workloads = [ "cell-ssb"; "cell-uniform"; "serve-skewed" ]

let cell_spec ~scale = function
  | "cell-ssb" -> { Cell.key = "ssb"; jobs = 2; scale }
  | "cell-uniform" -> { Cell.key = "uniform"; jobs = 1; scale }
  | w -> Pb.die "no cell workload %s" w

(* Every traced run ends with the serving layer: the serve-skewed broker
   under the open-loop ladder. On serve-skewed the cell traced first is
   the skewed instance that broker stands on. *)
let run_workload ~qpricing ~scale ~workload ~seed ~seconds ~trace =
  (match (workload, trace) with
  | "serve-skewed", false -> Load.run ~qpricing ~scale ~seed ~seconds
  | w, false -> ignore (Cell.run (cell_spec ~scale w) ~seconds)
  | w, true ->
      let spec =
        if w = "serve-skewed" then { Cell.key = Load.workload; jobs = 1; scale }
        else cell_spec ~scale w
      in
      let inst = Layers.cell_layers spec in
      let served =
        if spec.key = Load.workload then inst
        else WI.build Load.workload ~scale ~seed:Cell.seed ()
      in
      Layers.serve_layers ~qpricing ~workload:Load.workload ~scale ~seed:Cell.seed
        ~pricing:Load.pricing ~seconds ~traffic_seed:seed served);
  Pb.print_result (if trace then per_layer else end_to_end);
  !Pb.check_failures = 0

let usage () =
  Pb.die
    "usage: perfbench --workload (%s) --seed N --seconds S --trace (0|1) --qpricing PATH\n\
    \       perfbench --smoke --qpricing PATH"
    (String.concat "|" workloads)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | "--smoke" :: rest -> parse (("smoke", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k = match Option.map int_of_string_opt (get k) with Some (Some n) -> n | _ -> usage () in
  let qpricing = match get "qpricing" with Some p -> p | None -> usage () in
  if not (Sys.file_exists qpricing) then Pb.die "no qpricing binary at %s" qpricing;
  Pb.guard_env ();
  (* a stop signal exits through at_exit, which stops the child server *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ];
  if get "smoke" <> None then begin
    (* every workload, untraced and traced, at Tiny scale: each check of
       the full benchmark in seconds *)
    let ok =
      List.for_all
        (fun (workload, trace) ->
          Pb.reset ();
          Printf.printf "== smoke %s --trace %d\n%!" workload (Bool.to_int trace);
          run_workload ~qpricing ~scale:WI.Tiny ~workload ~seed:42 ~seconds:1.0 ~trace)
        (List.concat_map (fun w -> [ (w, false); (w, true) ]) workloads)
    in
    if not ok then exit 1
  end
  else begin
    let workload = match get "workload" with Some w when List.mem w workloads -> w | _ -> usage () in
    let seed = int "seed" and seconds = int "seconds" in
    let trace = match int "trace" with 0 -> false | 1 -> true | _ -> usage () in
    if seconds < 1 then usage ();
    if not
         (run_workload ~qpricing ~scale:WI.Default ~workload ~seed
            ~seconds:(Float.of_int seconds) ~trace)
    then exit 1
  end
