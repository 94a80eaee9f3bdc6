(* Cross-engine identity gate for the relational layer, run by `make
   check`: build every workload's conflict hypergraph at Tiny scale in
   check mode — the columnar engine races the row oracle on every
   (query, delta) pair — and fail on any disagreement. The bench gate
   pins the same property at Default scale; this catches divergence in
   seconds, before the benches run. *)

module WI = Qp_experiments.Workload_instances
module DE = Qp_relational.Delta_eval

let () =
  Qp_switch.set DE.engine_switch DE.Check;
  let failures = ref 0 in
  List.iter
    (fun key ->
      let inst = WI.build key ~scale:WI.Tiny ~seed:42 () in
      let s = inst.WI.build_stats in
      let edges = Qp_core.Hypergraph.m inst.WI.hypergraph in
      if s.Qp_market.Conflict.check_mismatches = 0 then
        Printf.printf "check-rel-engines: %-8s ok (%d queries, %d edges)\n"
          key
          (List.length inst.WI.queries)
          edges
      else begin
        incr failures;
        Printf.printf
          "check-rel-engines: %-8s FAILED — %d columnar/row disagreements\n"
          key s.Qp_market.Conflict.check_mismatches
      end)
    WI.keys;
  if !failures > 0 then begin
    Printf.printf
      "check-rel-engines: %d workload(s) diverge; debug with \
       QP_REL_ENGINE=check and the cross-engine tests in \
       test/test_col_eval.ml\n"
      !failures;
    exit 1
  end
