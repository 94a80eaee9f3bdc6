module Database = Qp_relational.Database
module Query = Qp_relational.Query
module Delta = Qp_relational.Delta
module Rng = Qp_util.Rng
module Support = Qp_market.Support
module Conflict = Qp_market.Conflict
module World = Qp_workloads.World
module World_queries = Qp_workloads.World_queries
module Uniform_workload = Qp_workloads.Uniform_workload
module Tpch = Qp_workloads.Tpch
module Tpch_queries = Qp_workloads.Tpch_queries
module Ssb = Qp_workloads.Ssb
module Ssb_queries = Qp_workloads.Ssb_queries

type t = {
  key : string;
  label : string;
  db : Database.t;
  queries : Query.t list;
  deltas : Delta.t array;
  hypergraph : Qp_core.Hypergraph.t;
  build_stats : Conflict.stats;
}

type scale = Tiny | Default
type support_strategy = Uniform_support | Query_aware

(* Data generation and query expansion for one workload, as a span. *)
let generate key f =
  Qp_obs.with_span "workload.generate"
    ~args:(fun () -> [ ("workload", Qp_obs.Str key) ])
    f

let assemble ?(strategy = Query_aware) ~key ~label ~db ~queries ~support ~seed () =
  let rng = Rng.create seed in
  let support_rng = Rng.split rng "support" in
  let deltas =
    Qp_obs.with_span "support.generate"
      ~args:(fun () -> [ ("support", Qp_obs.Int support) ])
    @@ fun () ->
    match strategy with
    | Uniform_support -> Support.generate ~rng:support_rng db ~n:support
    | Query_aware ->
        Support.generate_query_aware ~rng:support_rng ~queries db ~n:support
  in
  let valued = List.map (fun q -> (q, 1.0)) queries in
  let hypergraph, build_stats = Conflict.hypergraph db valued deltas in
  { key; label; db; queries; deltas; hypergraph; build_stats }

let skewed ?(scale = Default) ?strategy ?support ~seed () =
  let config, support_default =
    match scale with
    | Tiny -> (World.tiny_config, 120)
    | Default -> (World.default_config, 1500)
  in
  let support = Option.value support ~default:support_default in
  let db, queries =
    generate "skewed" @@ fun () ->
    let rng = Rng.create seed in
    let db = World.generate ~rng:(Rng.split rng "world") ~config () in
    (db, World_queries.workload db)
  in
  assemble ?strategy ~key:"skewed"
    ~label:(Printf.sprintf "%d queries, skewed workload" (List.length queries))
    ~db ~queries ~support ~seed ()

let uniform ?(scale = Default) ?strategy ?support ?m ~seed () =
  let config, support_default, m_default =
    match scale with
    | Tiny -> (World.tiny_config, 120, 40)
    | Default -> (World.default_config, 600, 300)
  in
  let support = Option.value support ~default:support_default in
  let m = Option.value m ~default:m_default in
  let db, queries =
    generate "uniform" @@ fun () ->
    let rng = Rng.create seed in
    let db = World.generate ~rng:(Rng.split rng "world") ~config () in
    (db, Uniform_workload.workload ~rng:(Rng.split rng "uniform-queries") ~m db)
  in
  assemble ?strategy ~key:"uniform"
    ~label:(Printf.sprintf "%d queries, uniform workload" m)
    ~db ~queries ~support ~seed ()

let tpch ?(scale = Default) ?strategy ?support ~seed () =
  let config, support_default =
    match scale with
    | Tiny -> (Tpch.tiny_config, 120)
    | Default -> (Tpch.default_config, 800)
  in
  let support = Option.value support ~default:support_default in
  let db, queries =
    generate "tpch" @@ fun () ->
    let rng = Rng.create seed in
    let db = Tpch.generate ~rng:(Rng.split rng "tpch") ~config () in
    (db, Tpch_queries.workload ())
  in
  assemble ?strategy ~key:"tpch"
    ~label:(Printf.sprintf "%d TPC-H queries" (List.length queries))
    ~db ~queries ~support ~seed ()

let ssb ?(scale = Default) ?strategy ?support ~seed () =
  let config, support_default =
    match scale with
    | Tiny -> (Ssb.tiny_config, 120)
    | Default -> (Ssb.default_config, 1200)
  in
  let support = Option.value support ~default:support_default in
  let db, queries =
    generate "ssb" @@ fun () ->
    let rng = Rng.create seed in
    let db = Ssb.generate ~rng:(Rng.split rng "ssb") ~config () in
    (db, Ssb_queries.workload ())
  in
  assemble ?strategy ~key:"ssb"
    ~label:(Printf.sprintf "%d SSB queries" (List.length queries))
    ~db ~queries ~support ~seed ()

let keys = [ "skewed"; "uniform"; "tpch"; "ssb" ]

let build key ?scale ?strategy ?support ~seed () =
  match String.lowercase_ascii key with
  | "skewed" -> skewed ?scale ?strategy ?support ~seed ()
  | "uniform" -> uniform ?scale ?strategy ?support ~seed ()
  | "tpch" -> tpch ?scale ?strategy ?support ~seed ()
  | "ssb" -> ssb ?scale ?strategy ?support ~seed ()
  | _ -> raise Not_found

let rebuild_with_support ?strategy t ~support ~seed =
  assemble ?strategy ~key:t.key ~label:t.label ~db:t.db ~queries:t.queries
    ~support ~seed ()
