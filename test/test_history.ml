(* Tests for history-aware (marginal) pricing: the Upadhyaya-style
   refund folded into the charge. *)

open Fixtures
module Broker = Qp_serve.Broker
module Account = Broker.Account
module P = Qp_core.Pricing

let queries =
  let q name where select = Query.make ~name ~from:[ "Users" ] ~where select in
  [
    q "females"
      Expr.(eq (col "gender") (str "f"))
      [ Query.Field (Expr.col "name", "n"); Query.Field (Expr.col "age", "a") ];
    q "young"
      (Expr.Cmp (Expr.Lt, Expr.col "age", Expr.int 23))
      [ Query.Field (Expr.col "name", "n"); Query.Field (Expr.col "age", "a") ];
    q "all" (Expr.Cmp (Expr.Ge, Expr.col "age", Expr.int 0))
      [ Query.Field (Expr.col "name", "n"); Query.Field (Expr.col "age", "a") ];
  ]

let make_broker () =
  Broker.of_buyers ~pricing:"lpip" ~seed:3 ~support:80 db
    (List.map (fun q -> (q, 50.0)) queries)

let quote broker q = (Broker.quote broker q).Qp_serve.Protocol.price

let buy broker account q =
  match Broker.purchase ~account broker ~budget:1e9 q with
  | `Sold (price, _) -> price
  | `Declined _ -> Alcotest.fail "unlimited budget cannot decline"

let test_marginal_never_exceeds_standalone () =
  let broker = make_broker () in
  let q1 = List.nth queries 0 and q2 = List.nth queries 1 in
  let standalone_q2 = quote broker q2 in
  let alice = Account.create () in
  let _ = buy broker alice q1 in
  let marginal_q2 = buy broker alice q2 in
  Alcotest.(check bool) "subadditive discount" true
    (marginal_q2 <= standalone_q2 +. 1e-9)

let test_repeat_purchase_free () =
  let broker = make_broker () in
  let q1 = List.nth queries 0 in
  let bob = Account.create () in
  let first = buy broker bob q1 in
  let again = buy broker bob q1 in
  Alcotest.(check bool) "first may cost" true (first >= 0.0);
  Alcotest.(check (float 1e-9)) "re-buying is free" 0.0 again

let test_total_never_exceeds_union_price () =
  let broker = make_broker () in
  let carol = Account.create () in
  List.iter (fun q -> ignore (buy broker carol q)) queries;
  let union_price =
    P.price_items (Broker.pricing broker) (Account.history carol)
  in
  Alcotest.(check (float 1e-6)) "pays exactly the union price" union_price
    (Account.spent carol)

let test_accounts_isolated () =
  let broker = make_broker () in
  let q1 = List.nth queries 0 in
  let p_dave = buy broker (Account.create ()) q1 in
  let p_erin = buy broker (Account.create ()) q1 in
  Alcotest.(check (float 1e-9)) "fresh accounts pay the same" p_dave p_erin;
  let nobody = Account.create () in
  Alcotest.(check int) "fresh account empty" 0
    (Array.length (Account.history nobody));
  Alcotest.(check (float 1e-9)) "fresh account spent" 0.0 (Account.spent nobody)

let test_budget_declines_marginal () =
  let broker = make_broker () in
  let q = List.hd queries in
  let quote = quote broker q in
  Alcotest.(check bool) "query has a positive price" true (quote > 0.0);
  let frank = Account.create () in
  (match Broker.purchase ~account:frank broker ~budget:(quote /. 2.0) q with
  | `Declined price -> Alcotest.(check (float 1e-9)) "declined at marginal" quote price
  | `Sold _ -> Alcotest.fail "should decline");
  Alcotest.(check (float 1e-9)) "nothing recorded" 0.0 (Account.spent frank)

let test_uniform_bundle_marginal_first_purchase () =
  (* Regression: with f(∅) = 0 (arbitrage-freeness demands it), the
     marginal of a first purchase against an empty history is the full
     standalone price. The seed had f(∅) = P, which degenerated every
     first marginal to 0 — a free ride on uniform bundle pricing. *)
  let p = P.Uniform_bundle 5.0 in
  let items = [| 1; 4; 7 |] in
  let first, history = P.marginal p ~history:[||] items in
  Alcotest.(check (float 1e-9)) "first purchase pays the standalone price" 5.0
    first;
  Alcotest.(check (array int)) "history absorbs the bundle" items history;
  let again, _ = P.marginal p ~history items in
  Alcotest.(check (float 1e-9)) "re-buying is free" 0.0 again;
  let _, merged = P.marginal p ~history:[| 0; 4; 9 |] items in
  Alcotest.(check (array int)) "sorted union" [| 0; 1; 4; 7; 9 |] merged

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "history-pricing",
    [
      t "marginal <= standalone (refund effect)"
        test_marginal_never_exceeds_standalone;
      t "re-buying is free" test_repeat_purchase_free;
      t "total spent = union price" test_total_never_exceeds_union_price;
      t "accounts are isolated" test_accounts_isolated;
      t "budget declines on marginal price" test_budget_declines_marginal;
      t "uniform-bundle first marginal is the standalone price (regression)"
        test_uniform_bundle_marginal_first_purchase;
    ] )
