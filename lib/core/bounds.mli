(** Revenue upper bounds used to normalize the experiment plots (§6.1).

    Two bounds are reported, exactly as in the paper:
    - the sum of all valuations, a trivially sound but loose bound;
    - a "subadditive bound": the optimum of an LP with one revenue
      variable per buyer, capped by the valuation and by cover
      constraints generated greedily (a bundle cannot earn more than the
      revenue of a set of bundles that covers it). The paper's §6.3
      itself observes this bound is not always tight — it is a pruned
      relaxation (covers involving unsold bundles are not valid
      subadditivity certificates), and we inherit that caveat
      deliberately to reproduce the reported normalization. *)

val sum_valuations : Hypergraph.t -> float
(** The trivial bound: no pricing can collect more than every buyer
    paying their full valuation. Alias of
    {!Hypergraph.sum_valuations}, exposed here as the plots' default
    normalizer. *)

val greedy_cover :
  Hypergraph.t -> Hypergraph.edge -> Hypergraph.edge list option
(** [greedy_cover h] returns the generator of the bound's cover
    constraints; apply it to each target edge of [h]. It picks, among
    the edges whose bundle differs from the target's, the one with the
    least valuation per newly covered item, until every item of the
    target is covered; ties on the ratio keep the lower edge id. The
    cover lists the chosen edges last-chosen first; [None] when some
    item of the target lies in no other bundle. The partial application
    builds the item index once, so the returned function is cheap per
    target; it is not safe to share across domains. *)

val subadditive_bound :
  ?max_covers:int -> ?max_pivots:int -> Hypergraph.t -> float
(** [max_covers] caps the number of generated cover constraints
    (default: one per edge, processed by descending valuation). The
    result is clamped to [sum_valuations] from above and to the best of
    the trivial bounds from below. *)

val subadditive_bound_report :
  ?max_covers:int -> ?max_pivots:int -> Hypergraph.t ->
  float * Qp_lp.Lp.error option
(** Like {!subadditive_bound}, also reporting whether the bound LP
    failed. On failure the bound silently widens to {!sum_valuations}
    (still sound, just loose); the second component carries the LP
    failure so normalized plots can flag the widening, and a
    ["bounds.degraded"] counter/event fires through {!Qp_obs}. *)
