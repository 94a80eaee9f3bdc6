(** Incremental query evaluation against single-tuple deltas.

    Conflict-set computation asks, for one query and thousands of
    support deltas, whether [Q(D ⊕ δ) <> Q(D)]. Re-running the query per
    delta costs |support| full evaluations per query; this module
    answers each test from the changed tuple's {e contribution} to the
    answer instead, which is constant-time for most of the paper's
    workload queries.

    Strategy selection (per query, at {!prepare} time):
    - {b rowwise}: no aggregates / grouping / DISTINCT / LIMIT — compare
      the old and new tuple's projected contributions as multisets.
    - {b rowwise-distinct}: as above with DISTINCT — decide via
      precomputed projection multiplicities whether the answer {e set}
      changes.
    - {b grouped}: aggregates, optionally GROUP BY where every selected
      field is a group key — recompute only the affected groups'
      aggregate outputs through {!Agg_state.output_with_delta}.
    - {b limited}: plain [LIMIT k] queries (no aggregates / grouping /
      DISTINCT / self-joins) — keep the full sorted projected multiset
      and compare only its first [k] rows against the delta-adjusted
      merge.
    - {b fallback}: anything else (DISTINCT+GROUP BY, self-joins,
      grouped queries selecting non-key fields) — full re-evaluation
      with the compiled plan. Always runs on the row engine: a full
      re-evaluation has no per-delta kernel to vectorize, and using one
      code path keeps the oracle and the columnar mode trivially
      identical there.

    Every strategy is observationally equivalent to
    [not (Result_set.equal (Eval.run d' q) (Eval.run d q))]; the test
    suite checks this by property.

    {2 Engines}

    Join enumeration behind the strategies runs on one of two engines:
    the original row-at-a-time {!Eval} engine, or the vectorized
    {!Col_eval} engine over {!Col_table} columnar images. [Check] runs
    both on every delta, returns the {e row} engine's answer (the
    oracle), and counts disagreements in {!check_mismatches}. The
    columnar engine additionally short-circuits [Cell_change] deltas on
    columns the query never references — the row oracle does not, so
    check mode exercises that shortcut too.

    The process-wide default is {!engine_switch}. *)

type engine = Row | Columnar | Check

val engine_switch : engine Qp_switch.t
(** [QP_REL_ENGINE] and its [--rel-engine] twin: [row], [columnar] or
    [check]; default [columnar]. An unknown value exits with code 2. *)

val default_engine : unit -> engine
(** The process-wide default: [Qp_switch.get engine_switch]. *)

val check_mismatches : unit -> int
(** Process-wide count of deltas on which the two engines disagreed
    under [Check] (monotone; see {!reset_check_mismatches}). *)

val reset_check_mismatches : unit -> unit
(** Zero the mismatch counter (benchmarks isolate runs with this). *)

type t

val prepare : ?engine:engine -> Database.t -> Query.t -> t
(** Compiles the query, enumerates its pre-aggregation rows once, and
    builds the per-strategy base state on [engine] (default
    {!default_engine}). *)

val query : t -> Query.t
(** The query this preparation was built for. *)

val base_result : t -> Result_set.t
(** [Q(D)], computed lazily from the same plan. *)

val strategy_name : t -> string
(** ["rowwise"], ["rowwise-distinct"], ["grouped"], ["limited"] or
    ["fallback"] — exposed for tests and diagnostics. *)

val differs : t -> Delta.t -> bool
(** Whether the perturbed instance changes the query answer. *)
