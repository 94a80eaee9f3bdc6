(** Two-phase primal simplex with two interchangeable engines.

    Solves {b maximize} [c . x] subject to [A x <= b], [x >= 0], where
    [b] may have negative entries (phase 1 introduces artificial
    variables for the infeasible slack rows). This is the raw engine;
    {!Lp} offers a friendlier incremental problem builder.

    Rows come in as sparse vectors ({!Sparse.col}, indexed by variable):
    the one LP input format. The default engine is a {e revised}
    simplex: it transposes the rows into sparse columns and stores the
    basis inverse as an eta-file factorization ({!Basis}) with periodic
    reinversion, so the per-pivot cost tracks the nonzero structure
    rather than the dense [O(rows * cols)] elimination. The previous
    dense tableau survives as a reference oracle ({!Dense}) and is the
    only code that densifies a row; {!Check} runs both engines on every
    solve and counts disagreements. Both engines share the same
    pivot rules — Dantzig pricing with an anti-cycling switch to Bland's
    rule once the iteration stalls — and the same scale-relative
    {!Tolerance} thresholds.

    The solver never raises on solver-side failure: exceeding the pivot
    budget or detecting non-finite arithmetic is reported as a typed
    outcome carrying {!diagnostics}, so callers can distinguish "the
    instance is infeasible" from "the solver gave up". *)

type diagnostics = {
  pivots : int;  (** total pivots performed (both phases) *)
  phase1_pivots : int;  (** pivots spent finding a feasible basis *)
  degenerate_pivots : int;  (** pivots whose leaving row had a ~0 rhs *)
  bland_engaged : bool;  (** whether the anti-cycling rule ever engaged *)
  detail : string;  (** human-readable cause, e.g. the budget hit *)
}
(** Where the solver was when it gave up — attached to
    {!Budget_exhausted} and {!Numerical_error} so degradation layers can
    log {e why} an LP failed, not just that it did. *)

type outcome =
  | Optimal of solution
  | Unbounded
  | Infeasible
  | Budget_exhausted of diagnostics
      (** the pivot budget ([max_pivots]) ran out before convergence *)
  | Numerical_error of diagnostics
      (** a NaN/Inf appeared in the objective or the reported solution *)

and solution = {
  objective : float;
  primal : float array;  (** one value per structural variable *)
  dual : float array;
      (** one value per constraint: the optimal dual multipliers
          (shadow prices); non-negative for binding [<=] rows *)
}

type engine =
  | Dense  (** the original dense tableau — reference oracle *)
  | Revised  (** sparse columns + eta-file basis (default) *)
  | Check
      (** run [Revised], then re-solve with [Dense] and compare: the
          outcome constructor must match and optimal objectives must
          agree (primal/dual vectors are {e not} compared — alternate
          optima make them non-unique; instead each engine's dual
          certificate is checked against strong duality). Disagreements
          bump {!cross_check_mismatches} and, under tracing, the
          ["simplex.cross_check_mismatch"] counter. Solves where either
          engine gives up ([Budget_exhausted]/[Numerical_error]) and
          solves under active {!Qp_fault} injection yield no verdict. *)

val engine_switch : engine Qp_switch.t
(** [QP_LP_ENGINE] and its [--lp-engine] twin: [dense], [revised]
    (alias [sparse]) or [check] (alias [cross-check]); default
    [revised]. An unknown value aborts the process at load time with
    exit code 2, like [QP_FAULTS]. *)

val default_engine : unit -> engine
(** The engine used when {!solve} gets no [?engine]:
    [Qp_switch.get engine_switch]. *)

val with_engine : engine -> (unit -> 'a) -> 'a
(** [with_engine e f] runs [f] with the default engine set to [e],
    restoring the previous default afterwards (also on exceptions). *)

val cross_check_mismatches : unit -> int
(** Number of {!Check}-mode disagreements observed since program start
    (or the last {!reset_cross_check_mismatches}). Independent of
    {!Qp_obs} tracing, so tests can assert it is zero. *)

val reset_cross_check_mismatches : unit -> unit

val solve :
  ?engine:engine ->
  ?max_pivots:int ->
  ?stall_threshold:int ->
  ?refactor_every:int ->
  c:float array ->
  rows:(Sparse.col * float) array ->
  unit ->
  outcome
(** [solve ~c ~rows ()] maximizes [c . x] over [{x >= 0 | a_i . x <= b_i}]
    for [(a_i, b_i)] in [rows]. Each [a_i] lists the row's nonzeros by
    variable index (strictly increasing, each below [Array.length c], no
    stored zeros); {!Sparse.of_dense} converts a dense row.
    [max_pivots] (default [50_000]) bounds the total pivot count;
    exceeding it yields [Budget_exhausted] (never an exception).

    [engine] overrides the process default for this solve only.

    [stall_threshold] (default [1024]) is the number of {e consecutive}
    degenerate pivots tolerated before Bland's anti-cycling rule takes
    over for the remainder of the phase (a cycle consists solely of
    degenerate pivots, so any cycle trips this quickly); an absolute
    per-phase pivot count is kept as a legacy backstop. Passing
    [max_int] disables the fallback entirely, exposing the raw Dantzig
    rule — useful only for demonstrating cycling in tests.

    [refactor_every] (revised engine only; default [max 64 (rows / 2)])
    caps how many etas accumulate before the basis is reinverted from
    scratch. Small values stress-test reinversion; the default balances
    eta-file fill against rebuild cost.

    All numeric thresholds are scale-relative ({!Tolerance.make}): they
    grow with the magnitudes of [c], [A] and [b], so feasible but
    badly-scaled instances (rhs around [1e10]) are not misclassified as
    [Infeasible] by an absolute phase-1 residual check.

    When {!Qp_obs} tracing is enabled, every solve records a
    ["simplex.solve"] span carrying the dimensions and engine on open
    and phase-1/phase-2 pivot counts, degenerate pivots, whether Bland's
    rule engaged, eta count, reinversion count and the outcome on close,
    plus the ["simplex.solves"] / ["simplex.pivots"] /
    ["simplex.refactorizations"] counters, the pivots-by-phase counters
    ["simplex.phase1_pivots"] / ["simplex.phase2_pivots"] /
    ["simplex.dual_pivots"] (which sum to ["simplex.pivots"]; a one-shot
    solve has no dual phase), problem-size gauges and the
    eta-file length/fill gauges ["simplex.max_eta_len"] /
    ["simplex.max_eta_fill"]. Failures bump
    ["simplex.budget_exhausted"] / ["simplex.numerical_error"]; the
    fallback bumps ["simplex.bland_engaged"].

    Fault injection: each pivot iteration of either engine consults the
    ["simplex.pivot"] site of {!Qp_fault} (key = current pivot count);
    [fail] raises {!Qp_fault.Injected}, [nan] yields [Numerical_error],
    [stall] yields [Budget_exhausted]. *)

(** {1 Warm-started families}

    Sweeps (CIP's capacity grid, LPIP's candidate prefixes, the
    must-sell families) solve long sequences of LPs over {e one shared
    constraint matrix}, with only the objective and/or rhs moving
    between steps. A {!family} factors the sparse columns once and
    carries the optimal basis from member [k] into member [k+1]:

    - objective change only: the saved basis stays primal feasible, so
      a primal phase-2 run restores optimality — no phase 1;
    - rhs change only: the saved basis stays {e dual} feasible, so a
      dual-simplex phase repairs primal feasibility — no phase 1;
    - both: primal phase 2 against the old rhs first, then the dual
      phase, then a roundoff-cleanup phase-2 sweep.

    Warm solving is a pure optimization: any warm-path failure (budget,
    a stalled dual phase, numerics, a basic artificial drifting off
    zero) silently falls back
    to a cold solve, so {!resolve} reaches exactly the outcomes a cold
    {!solve} of the same member would. *)

type family
(** A mutable handle over one shared-matrix LP family: current
    objective/rhs, the factored columns, and (when the previous resolve
    ended [Optimal] on the revised engine) the saved basis. Not
    thread-safe; use one family per worker. *)

val prepare :
  ?max_pivots:int ->
  c:float array ->
  rows:(Sparse.col * float) array ->
  unit ->
  family
(** [prepare ~c ~rows ()] captures the family's shared matrix together
    with its first member's objective [c] and rhs (the [b_i] of
    [rows]), in {!solve}'s row format. No solving happens yet;
    [max_pivots] means the same as in {!solve} and applies to every
    subsequent {!resolve}, which otherwise runs {!solve}'s defaults. The
    sparse rows are stored once and shared, not copied — callers must
    not mutate them. *)

val resolve : ?engine:engine -> ?c:float array -> ?rhs:float array -> family -> outcome
(** [resolve ?c ?rhs fam] solves the family member obtained by
    replacing the current objective and/or rhs, then remembers the
    optimal basis for the next call. The first resolve (and any resolve
    after a non-[Optimal] outcome) runs cold; later ones warm-start as
    described above. Semantically equivalent to
    [solve ~c ~rows:(current rows) ()] — same typed outcomes, same
    tolerances, same fault-injection site.

    [engine] behaves as in {!solve}: [Dense] solves cold on the dense
    oracle (no warm state is kept), and [Check] cross-checks the
    {e warm-started} revised result against a cold dense solve,
    bumping {!cross_check_mismatches} on disagreement — the oracle for
    asserting that warm-starting never changes answers.

    Under tracing each call records a ["simplex.solve"] span — the same
    label as one-shot solves, so reports aggregate all solver activity
    together — with [warm_seed] on open and pivots, dual-phase pivots,
    [warm_hit] and the outcome on close, the ["simplex.solves"] and
    ["simplex.resolves"] counters, a
    ["simplex.warm_hit"] / ["simplex.warm_miss"] counter, the
    ["simplex.warm_pivots_saved"] counter plus
    ["simplex.warm_pivots_saved_max"] gauge (vs the family's last cold
    solve), the pivots-by-phase counters of {!solve} (a warm hit spends
    no phase-1 pivots; its dual-phase pivots count as
    ["simplex.dual_pivots"]), [phase1_pivots] among the close args, and
    — when the dual phase runs — a ["simplex.dual_phase"] span. A dual
    phase that makes a whole reinversion interval (the default
    [refactor_every]) of consecutive dual-degenerate pivots is abandoned
    as stalled. Warm-path failures emit a
    ["simplex.warm_fallback"] event — [reason] prefixed by the failing
    step ([phase 2 on old rhs:], [dual phase:] or [cleanup phase 2:]),
    plus the abandoned [pivots] and [dual_pivots] — add those pivots to
    the ["simplex.warm_abandoned_pivots"] counter, and re-solve cold.
    ["simplex.pivots"] counts only the reported (cold) solve. *)

val family_size : family -> int * int
(** [(rows, vars)] of the shared matrix. *)

val warm_switch : bool Qp_switch.t
(** [QP_LP_WARMSTART]: [on]/[1]/[true]/[yes] enable warm starts,
    [off]/[0]/[false]/[no] disable them; default enabled. Any other
    value aborts the process at load time with exit code 2.
    [Qp_switch.set warm_switch false] is the kill switch: every
    {!resolve} runs the cold path — the baseline for [bench warmstart]
    and a field diagnostic for suspected warm-path bugs. *)

val warm_starts : unit -> bool
(** Whether {!resolve} may reuse saved bases:
    [Qp_switch.get warm_switch]. *)
