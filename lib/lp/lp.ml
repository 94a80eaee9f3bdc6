type var = int
type constr = int

type sense = Le | Ge | Eq

type row = { terms : (float * var) list; bound : float; sense : sense }

type t = {
  minimize : bool;
  mutable objs : float list; (* reversed *)
  mutable nvars : int;
  mutable rows : row list; (* reversed *)
  mutable nrows : int;
}

type solution = {
  objective : float;
  primal : float array;
  row_dual : float array; (* indexed by user constraint *)
}

type error =
  | Infeasible
  | Unbounded
  | Budget_exhausted of Simplex.diagnostics
  | Numerical_error of Simplex.diagnostics

let error_tag = function
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Budget_exhausted _ -> "budget_exhausted"
  | Numerical_error _ -> "numerical_error"

let describe_error = function
  | Infeasible -> "LP infeasible"
  | Unbounded -> "LP unbounded"
  | Budget_exhausted d ->
      Printf.sprintf "simplex budget exhausted after %d pivots (%s)" d.Simplex.pivots
        d.Simplex.detail
  | Numerical_error d ->
      Printf.sprintf "simplex numerical error after %d pivots (%s)" d.Simplex.pivots
        d.Simplex.detail

let create ?(minimize = false) () =
  { minimize; objs = []; nvars = 0; rows = []; nrows = 0 }

let add_var p ~obj () =
  p.objs <- obj :: p.objs;
  p.nvars <- p.nvars + 1;
  p.nvars - 1

let var_count p = p.nvars
let constr_count p = p.nrows

let add_row p sense terms bound =
  p.rows <- { terms; bound; sense } :: p.rows;
  p.nrows <- p.nrows + 1;
  p.nrows - 1

let add_le p terms b = add_row p Le terms b
let add_ge p terms b = add_row p Ge terms b
let add_eq p terms b = add_row p Eq terms b

(* One user row as a sparse row: repeated variables summed in term
   order, exact zeros (cancelled pairs, -0.0) dropped. These are the
   values a dense accumulator summing from 0.0 would hold: a partial sum
   that is still zero adds the next nonzero term exactly, whatever its
   sign of zero, so only zero sums can differ, and those are dropped. *)
let row_of_terms nvars terms =
  let by_var = List.stable_sort (fun (_, u) (_, v) -> Int.compare u v) terms in
  let summed =
    List.fold_left
      (fun acc (coef, v) ->
        assert (v >= 0 && v < nvars);
        match acc with
        | (u, sum) :: rest when u = v -> (u, sum +. coef) :: rest
        | _ -> (v, coef) :: acc)
      [] by_var
  in
  let nonzero = List.filter (fun (_, s) -> s <> 0.0) (List.rev summed) in
  let idx, v = List.split nonzero in
  { Sparse.idx = Array.of_list idx; v = Array.of_list v }

(* Expansion into sparse <= form. [origin.(k)] records which user constraint
   produced simplex row [k] and with which dual sign; note that for
   every generated row, rhs = dual_sign * user_bound, which is what lets
   [Batch.resolve] retarget bounds without re-expanding. *)
let expand p =
  let nvars = p.nvars in
  let sign = if p.minimize then -1.0 else 1.0 in
  let c = Array.make nvars 0.0 in
  List.iteri (fun i obj -> c.(nvars - 1 - i) <- sign *. obj) p.objs;
  let user_rows = Array.of_list (List.rev p.rows) in
  let sim_rows = ref [] and origin = ref [] in
  Array.iteri
    (fun i { terms; bound; sense } ->
      let a = row_of_terms nvars terms in
      let push a b sgn =
        sim_rows := (a, b) :: !sim_rows;
        origin := (i, sgn) :: !origin
      in
      let negated () = push (Sparse.scaled (-1.0) a) (-.bound) (-1.0) in
      match sense with
      | Le -> push a bound 1.0
      | Ge -> negated ()
      | Eq ->
          push a bound 1.0;
          negated ())
    user_rows;
  let rows = Array.of_list (List.rev !sim_rows) in
  let origin = Array.of_list (List.rev !origin) in
  (sign, c, rows, origin, Array.length user_rows)

let solution_of_optimal ~sign ~origin ~nuser
    ({ objective; primal; dual } : Simplex.solution) =
  let row_dual = Array.make nuser 0.0 in
  Array.iteri
    (fun k (i, sgn) -> row_dual.(i) <- row_dual.(i) +. (sgn *. sign *. dual.(k)))
    origin;
  { objective = sign *. objective; primal; row_dual }

let solve ?engine ?max_pivots p =
  Qp_obs.with_span "lp.solve"
    ~args:(fun () ->
      [ ("vars", Qp_obs.Int p.nvars); ("constraints", Qp_obs.Int p.nrows) ])
  @@ fun () ->
  let sign, c, rows, origin, nuser = expand p in
  match Simplex.solve ?engine ?max_pivots ~c ~rows () with
  | Simplex.Infeasible -> Error Infeasible
  | Simplex.Unbounded -> Error Unbounded
  | Simplex.Budget_exhausted d -> Error (Budget_exhausted d)
  | Simplex.Numerical_error d -> Error (Numerical_error d)
  | Simplex.Optimal sol -> Ok (solution_of_optimal ~sign ~origin ~nuser sol)

module Batch = struct
  type problem = t

  type t = {
    sign : float;
    nvars : int;
    nuser : int;
    origin : (int * float) array;
    fam : Simplex.family;
  }

  let prepare ?max_pivots (p : problem) =
    let sign, c, rows, origin, nuser = expand p in
    {
      sign;
      nvars = p.nvars;
      nuser;
      origin;
      fam = Simplex.prepare ?max_pivots ~c ~rows ();
    }

  let resolve ?engine ?obj ?bounds bt =
    Qp_obs.with_span "lp.resolve"
      ~args:(fun () ->
        [ ("vars", Qp_obs.Int bt.nvars); ("constraints", Qp_obs.Int bt.nuser) ])
    @@ fun () ->
    let c =
      Option.map
        (fun o ->
          assert (Array.length o = bt.nvars);
          Array.map (fun x -> bt.sign *. x) o)
        obj
    in
    let rhs =
      Option.map
        (fun bounds ->
          assert (Array.length bounds = bt.nuser);
          Array.map (fun (i, sgn) -> sgn *. bounds.(i)) bt.origin)
        bounds
    in
    match Simplex.resolve ?engine ?c ?rhs bt.fam with
    | Simplex.Infeasible -> Error Infeasible
    | Simplex.Unbounded -> Error Unbounded
    | Simplex.Budget_exhausted d -> Error (Budget_exhausted d)
    | Simplex.Numerical_error d -> Error (Numerical_error d)
    | Simplex.Optimal sol ->
        Ok (solution_of_optimal ~sign:bt.sign ~origin:bt.origin ~nuser:bt.nuser sol)
end

let objective_value s = s.objective
let value s v = s.primal.(v)
let dual s cid = s.row_dual.(cid)
let var_index (v : var) = v
let constr_index (c : constr) = c
