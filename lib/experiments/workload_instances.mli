(** End-to-end construction of the paper's four pricing instances
    (§6.2): generate the dataset, expand the query workload, sample the
    support, and compute every conflict set.

    Scales are reduced relative to the paper (SF-1 TPC-H and support
    100 000 do not fit a CI budget); EXPERIMENTS.md records the exact
    numbers used for every reported figure. Valuations in the returned
    hypergraph are placeholders (1.0) — experiments overlay a
    {!Qp_workloads.Valuations.model}. *)

module Database = Qp_relational.Database
module Query = Qp_relational.Query
module Delta = Qp_relational.Delta

type t = {
  key : string;  (** "skewed" | "uniform" | "tpch" | "ssb" *)
  label : string;  (** display name, e.g. "986 queries, skewed workload" *)
  db : Database.t;
  queries : Query.t list;
  deltas : Delta.t array;
  hypergraph : Qp_core.Hypergraph.t;
  build_stats : Qp_market.Conflict.stats;
}

type scale = Tiny | Default
(** [Tiny] is for unit tests (seconds); [Default] for the benches. *)

type support_strategy = Uniform_support | Query_aware
(** How neighbors are sampled (see {!Qp_market.Support}). [Query_aware]
    is the default: at reduced data scale it reproduces the paper's
    hyperedge-size distributions; the benches ablate the choice. *)

val assemble :
  ?strategy:support_strategy ->
  key:string ->
  label:string ->
  db:Database.t ->
  queries:Query.t list ->
  support:int ->
  seed:int ->
  unit ->
  t
(** The shared tail of every builder: sample [support] neighbors of
    [db] (rng stream ["support"] of [seed]; query-aware by default,
    uniform when [queries] reference no cells) and compute every
    query's conflict set, with placeholder valuations 1.0. Exported so
    that brokers over a custom database build the same way as the
    workload instances. *)

val skewed :
  ?scale:scale -> ?strategy:support_strategy -> ?support:int -> seed:int ->
  unit -> t
(** The paper's skewed synthetic workload: Zipfian point/range queries
    over a synthetic star schema (986 queries at [Default] scale). *)

val uniform :
  ?scale:scale -> ?strategy:support_strategy -> ?support:int -> ?m:int ->
  seed:int -> unit -> t
(** The uniform synthetic workload ([m] overrides the query count). *)

val tpch :
  ?scale:scale -> ?strategy:support_strategy -> ?support:int -> seed:int ->
  unit -> t
(** The TPC-H query templates over a sampled TPC-H database. *)

val ssb :
  ?scale:scale -> ?strategy:support_strategy -> ?support:int -> seed:int ->
  unit -> t
(** The Star Schema Benchmark query flights over a sampled SSB
    database — the slowest build of the four. *)

val keys : string list
(** ["skewed"; "uniform"; "tpch"; "ssb"] — the builder keys accepted
    by {!build} and {!Context.instance}. *)

val build :
  string -> ?scale:scale -> ?strategy:support_strategy -> ?support:int ->
  seed:int -> unit -> t
(** Build by key. Raises [Not_found] on an unknown key. *)

val rebuild_with_support :
  ?strategy:support_strategy -> t -> support:int -> seed:int -> t
(** Re-sample a support of a different size over the same database and
    queries, and recompute conflict sets — the §6.5 experiments. *)
