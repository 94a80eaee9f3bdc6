(* Quickstart: price a tiny query workload end to end.

   The pipeline is the paper's (§3): fix a dataset, sample a support set
   of neighboring databases, map each buyer's query to its conflict set
   (a bundle of support items), and choose an arbitrage-free pricing
   that maximizes revenue against the buyers' valuations.

   Run with: dune exec examples/quickstart.exe *)

module Relational = Qp_relational
module Broker = Qp_serve.Broker
module Query = Relational.Query
module Expr = Relational.Expr
module Value = Relational.Value
module Schema = Relational.Schema

(* A four-row Users table — the running example of the paper's §3. *)
let users_db =
  let schema =
    Schema.make ~name:"Users"
      ~attrs:
        [ ("uid", Schema.T_int); ("name", Schema.T_string);
          ("gender", Schema.T_string); ("age", Schema.T_int) ]
  in
  let row uid name gender age =
    [| Value.Int uid; Value.Str name; Value.Str gender; Value.Int age |]
  in
  Relational.Database.make
    [
      Relational.Relation.make schema
        [ row 1 "Abe" "m" 18; row 2 "Alice" "f" 20; row 3 "Bob" "m" 25;
          row 4 "Cathy" "f" 22 ];
    ]

let q name select ?where () =
  Query.make ~name ?where ~from:[ "Users" ] select

let () =
  (* 1. The buyers: each wants one query at a known valuation. *)
  let count_female =
    q "count-female"
      [ Query.Aggregate (Query.Count_star, "cnt") ]
      ~where:Expr.(eq (col "gender") (str "f"))
      ()
  in
  let by_gender =
    Query.make ~name:"by-gender" ~from:[ "Users" ]
      ~group_by:[ Expr.col "gender" ]
      [ Query.Field (Expr.col "gender", "gender");
        Query.Aggregate (Query.Count_star, "cnt") ]
  in
  let avg_age =
    q "avg-age" [ Query.Aggregate (Query.Avg (Expr.col "age"), "avg_age") ] ()
  in
  let everything = Query.make ~name:"all" ~from:[ "Users" ]
      (Query.star users_db (q "tmp" [ Query.Field (Expr.int 1, "x") ] ())) in

  (* 2. The broker samples the support set, builds every conflict set
        and prices with the LP item-pricing algorithm (the paper's
        consistent winner). *)
  let broker =
    Broker.of_buyers ~pricing:"lpip" ~seed:7 ~support:64 users_db
      [ (count_female, 10.0); (by_gender, 12.0); (avg_age, 20.0);
        (everything, 100.0) ]
  in
  let pricing = Broker.pricing broker in
  let h = Broker.hypergraph broker in
  Printf.printf "pricing: %s\n" (Qp_core.Pricing.describe pricing);
  Printf.printf "expected revenue: %.2f (out of %.2f total valuations)\n"
    (Qp_core.Pricing.revenue pricing h)
    (Qp_core.Hypergraph.sum_valuations h);

  (* 3. Arbitrage-freeness in action: the group-by answer determines the
        count-female answer, so its price can never be lower. *)
  let price query = (Broker.quote broker query).Qp_serve.Protocol.price in
  let p1 = price count_female in
  let p2 = price by_gender in
  Printf.printf "price(count-female) = %.2f <= price(by-gender) = %.2f : %b\n"
    p1 p2 (p1 <= p2 +. 1e-9);

  (* 4. Serve a purchase. *)
  match Broker.purchase broker ~budget:15.0 count_female with
  | `Sold (price, answer) ->
      Printf.printf "sold for %.2f; answer:\n%s" price
        (Format.asprintf "%a" Relational.Result_set.pp answer)
  | `Declined price -> Printf.printf "declined (quoted %.2f)\n" price
