(* Named, scale-relative numeric tolerances shared by both simplex
   engines (see simplex.ml). The old code compared against a single
   absolute eps = 1e-9 and a hard-coded 1e-7 phase-1 residual, which
   misclassifies feasible but badly-scaled instances (rhs ~ 1e10) as
   Infeasible: the roundoff left over after phase 1 is proportional to
   the data magnitude, not to machine epsilon alone. Every threshold
   here scales with the relevant input magnitude. *)

type t = {
  entering_phase1 : float;
  entering_phase2 : float;
  feasibility : float;
  pivot : float;
  residual : float;
}

let base_eps = 1e-9
let base_residual = 1e-7

let max_abs acc x = Float.max acc (Float.abs x)

let make ~c ~rows =
  let cmax = Array.fold_left max_abs 1.0 c in
  let bmax = Array.fold_left (fun acc (_, b) -> max_abs acc b) 1.0 rows in
  (* Only stored nonzeros are folded: a zero cannot raise a maximum that
     starts at 1, so a sparse row yields the dense row's threshold. *)
  let amax =
    Array.fold_left
      (fun acc ((a : Sparse.col), _) -> Array.fold_left max_abs acc a.v)
      1.0 rows
  in
  {
    (* Phase-1 reduced costs are sums of (eliminated) constraint-matrix
       rows, so they carry the matrix coefficients' scale — NOT the rhs
       scale: rhs only enters the objective value, and folding it in
       here would blind phase 1 to unit-scale improving columns on
       large-rhs instances. *)
    entering_phase1 = base_eps *. amax;
    entering_phase2 = base_eps *. cmax;
    feasibility = base_eps *. bmax;
    pivot = base_eps *. amax;
    residual = base_residual *. bmax;
  }

(* Relative comparison for ratio-test candidates: the ratios have the
   scale of the current basic solution, so a fixed eps misorders them
   on large instances and overmerges them on tiny ones. [b = infinity]
   (no candidate yet) accepts any finite [a] and ties nothing. *)
let ratio_lt a b =
  if Float.is_finite b then a < b -. (base_eps *. (1.0 +. Float.abs b))
  else a < b

let ratio_tied a b =
  Float.is_finite b && a < b +. (base_eps *. (1.0 +. Float.abs b))
