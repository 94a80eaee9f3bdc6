(** The pricing broker: load a database and support set once,
    precompute the conflict hypergraph and one pricing function, then
    price any query [Q] as [f(CS(Q, D))] against that cached state —
    the Qirana-like broker of the paper's §3. It backs [qpricing
    serve], [qpricing quote] (a one-shot of the served [QUOTE] path)
    and [qpricing demo].

    Lifecycle: {!create} (a named workload) or {!of_buyers} (a custom
    database and buyer list) builds and prices the instance; {!quote},
    {!quote_sql} and {!purchase} serve queries, including fresh ones
    that were never part of the priced workload; {!handle} dispatches
    protocol lines for the {!Server} loop. Precompute is the expensive
    part (see [docs/ARCHITECTURE.md], "Where the time goes"); what is
    standing vs recomputed per request is spelled out in
    [docs/SERVING.md] ("Caching semantics").

    Quote identity: {!quote_index} prices workload query [i] by
    applying the cached pricing to the cached hyperedge — bit-identical
    to what a one-shot [qpricing price] run with the same (workload,
    scale, support, seed, model, profile) computes for that query,
    because both paths build the identical instance and run the
    identical solver ([test/test_serve.ml] pins this for all five
    pricing families; [make serve-smoke] re-checks it over a live
    socket). *)

val pricing_keys : string list
(** Accepted [~pricing] keys: every {!Qp_core.Algorithms.keys} entry
    (ubp, uip, lpip, cip, layering, xos) plus ["capped"]
    ({!Qp_core.Capped}). *)

type t
(** A standing broker. The cached instance, hypergraph and pricing are
    immutable after construction; only request counters mutate, and
    only from the serving domain. Purchase histories live in
    caller-owned {!Account.t} values, never in the broker. *)

val create :
  ?scale:Qp_experiments.Workload_instances.scale ->
  ?support:int ->
  ?profile:Qp_experiments.Runner.profile ->
  workload:string ->
  model:Qp_workloads.Valuations.model ->
  pricing:string ->
  seed:int ->
  unit ->
  t
(** Build the full standing state: generate the dataset, sample the
    support, compute every conflict set (span ["serve.load"]), draw
    valuations and solve the pricing family (span ["serve.precompute"]).
    [profile] (default [Quick]) selects the LPIP/CIP sweep options, as
    in {!Qp_experiments.Runner.algorithms}. Raises [Invalid_argument]
    on a [pricing] key outside {!pricing_keys} and [Not_found] on an
    unknown workload key. *)

val of_instance :
  ?profile:Qp_experiments.Runner.profile ->
  model:Qp_workloads.Valuations.model ->
  pricing:string ->
  seed:int ->
  Qp_experiments.Workload_instances.t ->
  t
(** {!create} over an instance that is already built — the bench and
    tests reuse {!Qp_experiments.Context}'s cached instances. *)

val of_buyers :
  ?profile:Qp_experiments.Runner.profile ->
  pricing:string ->
  seed:int ->
  support:int ->
  Qp_relational.Database.t ->
  (Qp_relational.Query.t * float) list ->
  t
(** A broker over a custom database: sample [support] neighbors
    (query-aware, steered toward the buyers' queries), compute every
    buyer query's conflict set, install the given valuations and solve
    [pricing] — the same {!Qp_experiments.Workload_instances.assemble}
    and solver as {!create}. Its {!workload} is ["custom"]. Raises
    [Invalid_argument] on a negative valuation or a [pricing] key
    outside {!pricing_keys}. *)

val save_snapshot :
  file:string -> config:Snapshot.config -> t -> (unit, string) result
(** Checkpoint the precomputed state (instance, valuation-applied
    hypergraph with its class cache, pricing function) to a versioned
    snapshot file via {!Snapshot.write_file}; [config] must be the
    parameters the broker was built from (its workload/seed/pricing are
    cross-checked). Counters and histograms are deliberately not saved:
    a restored broker is a fresh serving session over old state.
    [Error] carries the OS, injection, or mismatch message. *)

val load_snapshot :
  file:string -> Snapshot.config -> (t, Snapshot.load_error) result
(** Restore a broker from a snapshot written under the same
    {!Snapshot.format_version} and an equal config digest — refusing
    anything else with a typed {!Snapshot.load_error} (the caller falls
    back to {!create}). A restored broker serves quotes bit-identical
    to the one that saved the snapshot: the pricing function's bytes
    are the pricing function. Orders of magnitude cheaper than
    {!create} (no dataset build, no solve) — [bench serve] publishes
    the ratio as [recovery_ms] vs [precompute_seconds]. *)

val workload : t -> string
(** The workload key the broker stands on. *)

val pricing_key : t -> string
(** The pricing-family key chosen at creation. *)

val pricing : t -> Qp_core.Pricing.t
(** The cached pricing function itself. *)

val seed : t -> int
(** The broker's random seed. *)

val queries : t -> int
(** Number of standing buyer queries (hyperedges) — the valid [PRICE]
    index range is [0, queries). *)

val items : t -> int
(** Support-set size (ground-set items). *)

val hypergraph : t -> Qp_core.Hypergraph.t
(** The standing conflict hypergraph, with the buyers' valuations
    applied — what the pricing was solved on. *)

val quote_index : t -> int -> Protocol.quote
(** Price standing workload query [i] with the cached pricing: price,
    conflict-set size, and whether it sells to its registered buyer.
    Pure with respect to the cached state (no counters, no fault
    sites) — the oracle the smoke check compares served replies
    against. Raises [Invalid_argument] outside [0, queries). *)

val quote : t -> Qp_relational.Query.t -> Protocol.quote
(** Price any query: compute its conflict set against the standing
    support (the only per-request relational work) and price it with
    the cached pricing. Arbitrage-freeness extends to queries outside
    the workload because the price is still [f(CS(Q, D))] for the same
    monotone subadditive [f]. [sold] is [None]: a fresh query has no
    registered buyer. *)

val quote_sql : t -> string -> (Protocol.quote, string) result
(** {!quote} of raw SQL in the workload dialect. [Error] carries the
    SQL parser's message. *)

(** Purchase histories for history-aware pricing. *)
module Account : sig
  type t
  (** One buyer's purchases: the support items already paid for and
      the total spent. *)

  val create : unit -> t
  (** A fresh account: empty history, nothing spent. *)

  val history : t -> int array
  (** Sorted support items the account has paid for. *)

  val spent : t -> float
  (** Total the account has paid across its purchases. *)
end

val purchase :
  ?account:Account.t ->
  t ->
  budget:float ->
  Qp_relational.Query.t ->
  [ `Sold of float * Qp_relational.Result_set.t | `Declined of float ]
(** Charge the query's price; if [budget] covers it, return the answer
    with the charge, otherwise decline at that charge. With an
    [account] the charge is the marginal price over its history
    ({!Qp_core.Pricing.marginal}, Upadhyaya et al.'s refund folded into
    the charge), and a sale absorbs the query's conflict set into the
    history. Without one the history is empty and the charge is the
    standalone {!quote} price, since [f(∅) = 0]. *)

val handle : ?overloaded:bool -> t -> string -> Protocol.response
(** Dispatch one raw request line: consult the ["serve.parse"] fault
    site (key = FNV-1a hash of the line), parse, consult
    ["serve.request"] (key = query index for [PRICE], hash of the SQL
    for [QUOTE], 0 otherwise), run the request, and map every failure —
    malformed line, bad index, SQL error, injected fault, unexpected
    exception — to a typed {!Protocol.Error_reply}. Never raises and
    never drops the connection. Runs under a ["serve.request"] span and
    bumps the ["serve.requests"]/["serve.quotes"]/["serve.errors"]
    counters. Independently of the obs flag, it times every request
    into always-on latency histograms ({!request_hist}, {!quote_hist})
    and counts the request as completed once its response is built —
    so a [METRICS]/[STATS] snapshot never sees counters and histograms
    out of step.

    With [~overloaded:true] (the {!Server} loop past its admission
    high-water mark), [PRICE]/[QUOTE] are shed with a typed
    [ERR overloaded] — counted under [shed] and ["serve.shed"], not
    [errors] — while the cheap verbs ([PING], [INFO], [STATS],
    [METRICS], [HEALTH], [SHUTDOWN]) still run, and [HEALTH] reports
    {!Protocol.Overloaded}. *)

val note_connection : t -> unit
(** Record one accepted connection (the {!Server} loop calls this);
    bumps ["serve.connections"]. *)

val note_timeout : t -> unit
(** Record one connection reaped by the idle/write deadline; bumps
    ["serve.timeouts"]. Called by the {!Server} loop. *)

val note_client_gone : t -> unit
(** Record one client that disconnected with a reply or request still
    in flight; bumps ["serve.client_gone"]. Called by the {!Server}
    loop — which must survive it, not tear down the accept loop. *)

val lifecycle : t -> Protocol.health_state
(** What a [HEALTH] probe reports (modulo transient overload, which
    {!handle} layers on top). Starts at {!Protocol.Serving}: a broker
    value exists only after precompute, so [Loading] is observable only
    through the CLI's log line, never over a socket. *)

val set_lifecycle : t -> Protocol.health_state -> unit
(** Move the lifecycle (the {!Server} loop flips [Serving] → [Draining]
    when it stops accepting). *)

val stats : t -> (string * int) list
(** Lifetime counters — client_gone, connections, errors, quotes,
    requests, shed, timeouts — plus [p50_ns]/[p95_ns]/[p99_ns]
    request-latency percentiles estimated from the live
    {!request_hist}, sorted by name; the payload of a [STATS] reply.
    [requests] counts {e completed} requests, so the [STATS] request
    reporting it is not yet included. *)

val request_hist : t -> Qp_obs.Hist.snapshot
(** Snapshot of the always-on server-side latency histogram over every
    completed request (recorded whether or not tracing is enabled). *)

val quote_hist : t -> Qp_obs.Hist.snapshot
(** Snapshot of the latency histogram over successful [PRICE]/[QUOTE]
    replies only — its count equals the [quotes] counter. *)

val metrics_text : t -> string
(** The Prometheus text-exposition body of a [METRICS] reply: the
    lifetime counters (including [qp_serve_shed_total],
    [qp_serve_timeouts_total], [qp_serve_client_gone_total]),
    standing-instance gauges (queries, items,
    uptime), and the {!request_hist}/{!quote_hist} histograms — plus,
    when tracing is enabled, every {!Qp_obs} counter, gauge and
    histogram under the [qp_obs_] name prefix. The wire framing
    ([# EOF] terminator) is added by {!Protocol.print_response}, not
    here. *)
