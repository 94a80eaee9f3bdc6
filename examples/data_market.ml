(* A data-market scenario on the world dataset (§1's motivation).

   A seller lists the world database. Buyers with different budgets —
   an analyst interested in demographics, a travel startup interested in
   cities, a linguistics lab — each want specific queries, not the whole
   dataset. The broker compares the paper's pricing algorithms on this
   workload and shows the revenue each would extract, then simulates
   serving the buyers at the winning pricing.

   Run with: dune exec examples/data_market.exe *)

module Broker = Qp_serve.Broker
module World = Qp_workloads.World
module Query = Qp_relational.Query
module Expr = Qp_relational.Expr
module Rng = Qp_util.Rng

let buyers db =
  let c = Expr.col and s = Expr.str in
  let demographics =
    [
      ( Query.make ~name:"population-by-continent" ~from:[ "Country" ]
          ~group_by:[ c "Continent" ]
          [ Query.Field (c "Continent", "continent");
            Query.Aggregate (Query.Sum (c "Population"), "population") ],
        40.0 );
      ( Query.make ~name:"life-expectancy" ~from:[ "Country" ]
          [ Query.Aggregate (Query.Avg (c "LifeExpectancy"), "avg") ],
        15.0 );
    ]
  in
  let travel =
    [
      ( Query.make ~name:"big-cities" ~from:[ "City" ]
          ~where:Expr.(Cmp (Ge, c "Population", int 1_000_000))
          [ Query.Field (c "Name", "name"); Query.Field (c "CountryCode", "cc") ],
        60.0 );
      ( Query.make ~name:"caribbean" ~from:[ "Country" ]
          ~where:Expr.(eq (c "Region") (s "Caribbean"))
          [ Query.Field (c "Name", "name") ],
        25.0 );
    ]
  in
  let linguistics =
    List.map
      (fun lang ->
        ( Query.make
            ~name:("speakers-" ^ lang)
            ~from:[ "Country"; "CountryLanguage" ]
            ~where:
              Expr.(
                eq (c "Code") (c "CountryCode") && eq (c "Language") (s lang))
            [ Query.Field (c ~table:"Country" "Name", "country");
              Query.Field (c "Percentage", "pct") ],
          8.0 ))
      [ "English"; "Spanish"; "Greek"; "French"; "Arabic" ]
  in
  ignore db;
  demographics @ travel @ linguistics

let () =
  let rng = Rng.create 11 in
  let db = World.generate ~rng ~config:World.tiny_config () in
  let broker_at pricing =
    Broker.of_buyers ~pricing ~seed:11 ~support:200 db (buyers db)
  in
  (* Every broker stands on the same hypergraph; UBP is the cheapest
     family to solve on the way to it. *)
  let h = Broker.hypergraph (broker_at "ubp") in
  Printf.printf "market: %d buyers, support %d, total valuations %.1f\n\n"
    (Qp_core.Hypergraph.m h)
    (Qp_core.Hypergraph.n_items h)
    (Qp_core.Hypergraph.sum_valuations h);

  (* Compare every algorithm of §5 on this workload, with the options
     the broker solves with. *)
  print_endline "algorithm comparison:";
  let best = ref ("", neg_infinity) in
  List.iter
    (fun (spec : Qp_core.Algorithms.spec) ->
      let pricing = spec.solve h in
      let revenue = Qp_core.Pricing.revenue pricing h in
      if revenue > snd !best then best := (spec.key, revenue);
      Printf.printf "  %-14s %8.2f\n" spec.label revenue)
    (Qp_experiments.Runner.algorithms Qp_experiments.Runner.Quick);

  (* Stand the winner and serve the buyers. *)
  let winner, _ = !best in
  let broker = broker_at winner in
  Printf.printf "\nserving buyers at the %s pricing:\n" winner;
  let collected =
    List.fold_left
      (fun collected (q, budget) ->
        match Broker.purchase broker ~budget q with
        | `Sold (price, _) ->
            Printf.printf "  %-28s bought at %6.2f (budget %5.1f)\n"
              q.Query.name price budget;
            collected +. price
        | `Declined price ->
            Printf.printf "  %-28s declined at %6.2f (budget %5.1f)\n"
              q.Query.name price budget;
            collected)
      0.0 (buyers db)
  in
  Printf.printf "total collected: %.2f\n" collected
