(* Tests for support sampling, conflict sets, and the broker. *)

open Fixtures
module Support = Qp_market.Support
module Conflict = Qp_market.Conflict
module Broker = Qp_serve.Broker
module Delta = Qp_relational.Delta
module Eval = Qp_relational.Eval
module Result_set = Qp_relational.Result_set
module Rng = Qp_util.Rng
module H = Qp_core.Hypergraph

(* --- support --- *)

let test_support_distinct_non_noop () =
  let rng = Rng.create 1 in
  let deltas = Support.generate ~rng db ~n:40 in
  Alcotest.(check int) "count" 40 (Array.length deltas);
  let keys =
    Array.to_list deltas |> List.map (Format.asprintf "%a" Delta.pp)
  in
  Alcotest.(check int) "distinct" 40 (List.length (List.sort_uniq compare keys));
  Array.iter
    (fun d -> Alcotest.(check bool) "non-noop" false (Delta.is_noop db d))
    deltas

let test_support_deterministic () =
  let d1 = Support.generate ~rng:(Rng.create 5) db ~n:20 in
  let d2 = Support.generate ~rng:(Rng.create 5) db ~n:20 in
  Alcotest.(check bool) "same" true (d1 = d2)

let test_support_applies () =
  let rng = Rng.create 2 in
  let deltas = Support.generate ~rng db ~n:30 in
  Array.iter
    (fun d ->
      let db' = Support.materialize db d in
      Alcotest.(check bool) "well-formed" true (Database.total_rows db' >= 8))
    deltas

let test_support_too_many () =
  (* a single-cell database cannot yield thousands of distinct deltas *)
  let tiny =
    Database.make
      [ Relation.make users_schema [ user 1 "A" "m" 18 ] ]
  in
  match Support.generate ~rng:(Rng.create 1) tiny ~n:100_000 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected exhaustion failure"

let workload_queries =
  [
    Query.make ~name:"w1" ~from:[ "Users" ]
      ~where:Expr.(eq (col "gender") (str "f"))
      [ Query.Field (Expr.col "name", "name") ];
    Query.make ~name:"w2" ~from:[ "Orders" ]
      ~where:Expr.(eq (col "item") (str "book"))
      [ Query.Aggregate (Query.Sum (Expr.col "amount"), "s") ];
  ]

let test_support_query_aware () =
  let rng = Rng.create 3 in
  let deltas =
    Support.generate_query_aware ~rng ~queries:workload_queries db ~n:40
  in
  Alcotest.(check int) "count" 40 (Array.length deltas);
  let keys = Array.to_list deltas |> List.map (Format.asprintf "%a" Delta.pp) in
  Alcotest.(check int) "distinct" 40 (List.length (List.sort_uniq compare keys))

let test_support_query_aware_flips_empty_footprint () =
  (* no user is named "Zed": the targeted sampler must flip some name
     cell to "Zed" so the query's conflict set is non-empty *)
  let q =
    Query.make ~name:"zed" ~from:[ "Users" ]
      ~where:Expr.(eq (col "name") (str "Zed"))
      [ Query.Field (Expr.col "uid", "uid") ]
  in
  let rng = Rng.create 4 in
  let deltas = Support.generate_query_aware ~rng ~queries:[ q ] db ~n:30 in
  let cs = Conflict.conflict_set db q deltas in
  Alcotest.(check bool) "non-empty conflict set" true (Array.length cs > 0)

(* --- conflict sets --- *)

let brute_conflict_set q deltas =
  let base = Eval.run db q in
  Array.to_list deltas
  |> List.mapi (fun i d -> (i, d))
  |> List.filter_map (fun (i, d) ->
         if Result_set.equal base (Eval.run (Delta.apply db d) q) then None
         else Some i)

let test_conflict_matches_brute_force () =
  let rng = Rng.create 6 in
  let deltas = Support.generate ~rng db ~n:60 in
  let rand = Random.State.make [| 42 |] in
  for i = 1 to 25 do
    let q = random_query rand i in
    Alcotest.(check (list int))
      ("conflict set of " ^ Query.to_sql q)
      (brute_conflict_set q deltas)
      (Array.to_list (Conflict.conflict_set db q deltas))
  done

let test_conflict_hypergraph () =
  let rng = Rng.create 7 in
  let deltas = Support.generate ~rng db ~n:30 in
  let valued = List.map (fun q -> (q, 5.0)) workload_queries in
  let h, stats = Conflict.hypergraph db valued deltas in
  Alcotest.(check int) "m" 2 (H.m h);
  Alcotest.(check int) "n" 30 (H.n_items h);
  Alcotest.(check int) "stats queries" 2 stats.Conflict.queries;
  Alcotest.(check int) "stats support" 30 stats.Conflict.support;
  Alcotest.(check bool) "named after query" true
    ((H.edge h 0).H.name = "w1")

let test_conflict_progress_callback () =
  let rng = Rng.create 8 in
  let deltas = Support.generate ~rng db ~n:10 in
  let calls = ref [] in
  let valued = List.map (fun q -> (q, 1.0)) workload_queries in
  let _ =
    Conflict.hypergraph
      ~on_progress:(fun ~done_ ~total -> calls := (done_, total) :: !calls)
      db valued deltas
  in
  Alcotest.(check (list (pair int int))) "progress" [ (2, 2); (1, 2) ] !calls

(* --- broker --- *)

let test_broker_lifecycle () =
  let buyers = List.map (fun q -> (q, 10.0)) workload_queries in
  let broker = Broker.of_buyers ~pricing:"ubp" ~seed:1 ~support:40 db buyers in
  Alcotest.(check int) "support" 40 (Broker.items broker);
  Alcotest.(check int) "buyers" 2 (Broker.queries broker);
  let h = Broker.hypergraph broker in
  Alcotest.(check int) "m" 2 (H.m h);
  let revenue = Qp_core.Pricing.revenue (Broker.pricing broker) h in
  Alcotest.(check bool) "expected revenue sane" true
    (revenue >= 0.0 && revenue <= 20.0 +. 1e-9)

let test_broker_negative_valuation () =
  match
    Broker.of_buyers ~pricing:"ubp" ~seed:1 ~support:10 db
      [ (List.hd workload_queries, -1.0) ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative valuation rejected"

(* Every pricing family: quoting a registered query afresh (conflict set
   recomputed against the support) is bit-identical to pricing its
   cached hyperedge. *)
let test_broker_quote_consistent_with_edge () =
  let buyers = List.map (fun q -> (q, 10.0)) workload_queries in
  List.iter
    (fun pricing ->
      let broker = Broker.of_buyers ~pricing ~seed:2 ~support:50 db buyers in
      List.iteri
        (fun i q ->
          let fresh = Broker.quote broker q
          and cached = Broker.quote_index broker i in
          Alcotest.(check int64)
            (pricing ^ ": quote = edge price")
            (Int64.bits_of_float cached.Qp_serve.Protocol.price)
            (Int64.bits_of_float fresh.Qp_serve.Protocol.price);
          Alcotest.(check int)
            (pricing ^ ": conflict-set size")
            cached.Qp_serve.Protocol.size fresh.Qp_serve.Protocol.size)
        workload_queries)
    Broker.pricing_keys

let test_broker_purchase () =
  let buyers = List.map (fun q -> (q, 10.0)) workload_queries in
  let broker = Broker.of_buyers ~pricing:"ubp" ~seed:2 ~support:50 db buyers in
  let q = List.hd workload_queries in
  let price = (Broker.quote broker q).Qp_serve.Protocol.price in
  Alcotest.(check bool) "positive price" true (price > 0.0);
  let account = Broker.Account.create () in
  (match Broker.purchase ~account broker ~budget:(price *. 0.8) q with
  | `Declined p -> Alcotest.(check (float 1e-9)) "declined price" price p
  | `Sold _ -> Alcotest.fail "should decline");
  (match Broker.purchase ~account broker ~budget:price q with
  | `Sold (p, answer) ->
      Alcotest.(check (float 1e-9)) "sold price" price p;
      Alcotest.(check bool) "answer correct" true
        (Result_set.equal answer (Eval.run db q))
  | `Declined _ -> Alcotest.fail "should sell");
  Alcotest.(check (float 1e-9)) "collected" price (Broker.Account.spent account)

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "market",
    [
      t "support distinct and non-noop" test_support_distinct_non_noop;
      t "support deterministic" test_support_deterministic;
      t "support deltas apply" test_support_applies;
      t "support exhaustion error" test_support_too_many;
      t "query-aware support" test_support_query_aware;
      t "query-aware flips empty footprints"
        test_support_query_aware_flips_empty_footprint;
      t "conflict sets match brute force (25 queries)"
        test_conflict_matches_brute_force;
      t "conflict hypergraph" test_conflict_hypergraph;
      t "conflict progress callback" test_conflict_progress_callback;
      t "broker lifecycle" test_broker_lifecycle;
      t "broker rejects negative valuation" test_broker_negative_valuation;
      t "broker quote = hyperedge price" test_broker_quote_consistent_with_edge;
      t "broker purchase" test_broker_purchase;
    ] )
