(** Succinct pricing functions (§3.4) and revenue accounting (§3.3).

    All three families are monotone and subadditive as set functions
    over the support, hence arbitrage-free by Theorem 1 of the paper:
    - uniform bundle pricing charges the same price for every bundle;
    - item (additive) pricing sums non-negative per-item weights;
    - XOS pricing takes the maximum over several additive pricings.

    A buyer purchases iff the price does not exceed their valuation;
    supply is unlimited, so revenue is the sum of prices over purchasing
    buyers. *)

type t =
  | Uniform_bundle of float
  | Item of float array  (** one weight per support item *)
  | Xos of float array list  (** max over additive components *)
  | Capped_item of { weight : float; cap : float }
      (** [min(weight * |bundle|, cap)] — the lower envelope of a
          uniform item pricing and a uniform bundle pricing. Monotone
          and subadditive (so arbitrage-free) for non-negative
          parameters; an extension family beyond the paper's three,
          evaluated by the [capped] bench. Note that unlike
          [Uniform_bundle], the empty bundle costs 0. *)

val price : t -> Hypergraph.edge -> float
(** Note that a uniform bundle price applies to {e every} bundle,
    including empty conflict sets, while additive prices give empty
    bundles price 0 — this asymmetry drives several effects in the
    paper's experiments (e.g. UBP on TPC-H's empty edges). *)

val price_items : t -> int array -> float
(** Price an arbitrary bundle of items — used to quote queries that
    were not part of the priced workload, and by the arbitrage
    checker. *)

val marginal : t -> history:int array -> int array -> float * int array
(** History-aware pricing (Upadhyaya et al., cited in §2): the charge
    for a bundle on top of the items a buyer already paid for is the
    marginal [max 0 (f(H ∪ items) - f(H))], returned with [H ∪ items].
    Monotonicity makes it non-negative and subadditivity caps it by the
    standalone price [f(items)], which it equals for an empty history
    since [f(∅) = 0]. Both arrays must be sorted and duplicate-free, as
    conflict sets are. *)

val sells : t -> Hypergraph.edge -> bool
(** [price <= valuation], with a 1e-9 relative tolerance so that
    LP-derived prices that are tight against a valuation still sell. *)

val revenue : t -> Hypergraph.t -> float
(** Sum of prices over the buyers that purchase ({!sells}). *)

val sold_edges : t -> Hypergraph.t -> Hypergraph.edge list
(** The purchasing buyers, in edge-id order — what the structure
    diagnostics of §6.3 inspect. *)

val is_valid : t -> Hypergraph.t -> bool
(** Structural sanity: weights non-negative and sized to the instance;
    uniform price non-negative. *)

val describe : t -> string
(** One-line human description, e.g. ["item pricing (370 classes)"] —
    used by the CLI and experiment reports. *)
