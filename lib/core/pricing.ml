type t =
  | Uniform_bundle of float
  | Item of float array
  | Xos of float array list
  | Capped_item of { weight : float; cap : float }

let additive_price w items =
  Array.fold_left (fun acc j -> acc +. w.(j)) 0.0 items

(* Every family must satisfy f(∅) = 0: a query with an empty conflict
   set reveals nothing, and subadditivity (hence arbitrage-freeness)
   forces its price to 0. Item/Xos get this for free from the empty
   sum; Uniform_bundle and Capped_item need the explicit guard. *)
let price_items p items =
  match p with
  | Uniform_bundle v -> if Array.length items = 0 then 0.0 else v
  | Item w -> additive_price w items
  | Xos ws ->
      List.fold_left (fun acc w -> Float.max acc (additive_price w items)) 0.0 ws
  | Capped_item { weight; cap } ->
      if Array.length items = 0 then 0.0
      else Float.min (weight *. Float.of_int (Array.length items)) cap

let price p (e : Hypergraph.edge) = price_items p e.items

(* Merge of two sorted, duplicate-free item arrays. *)
let union_sorted a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let rec go i j k =
    if i = na then (
      Array.blit b j out k (nb - j);
      k + nb - j)
    else if j = nb then (
      Array.blit a i out k (na - i);
      k + na - i)
    else
      let c = Int.compare a.(i) b.(j) in
      out.(k) <- (if c <= 0 then a.(i) else b.(j));
      go (if c <= 0 then i + 1 else i) (if c >= 0 then j + 1 else j) (k + 1)
  in
  Array.sub out 0 (go 0 0 0)

let marginal p ~history items =
  let combined = union_sorted history items in
  ( Float.max 0.0 (price_items p combined -. price_items p history),
    combined )

let tolerance = 1e-9

let sells p (e : Hypergraph.edge) =
  let pr = price p e in
  pr <= e.valuation +. (tolerance *. Float.max 1.0 (Float.abs e.valuation))

let revenue p h =
  Array.fold_left
    (fun acc e -> if sells p e then acc +. price p e else acc)
    0.0 (Hypergraph.edges h)

let sold_edges p h =
  Array.to_list (Hypergraph.edges h) |> List.filter (sells p)

let is_valid p h =
  match p with
  | Uniform_bundle v -> v >= 0.0
  | Capped_item { weight; cap } -> weight >= 0.0 && cap >= 0.0
  | Item w ->
      Array.length w = Hypergraph.n_items h && Array.for_all (fun x -> x >= 0.0) w
  | Xos ws ->
      ws <> []
      && List.for_all
           (fun w ->
             Array.length w = Hypergraph.n_items h
             && Array.for_all (fun x -> x >= 0.0) w)
           ws

let describe = function
  | Uniform_bundle v -> Printf.sprintf "uniform-bundle(%.4g)" v
  | Item _ -> "item-pricing"
  | Xos ws -> Printf.sprintf "xos(%d components)" (List.length ws)
  | Capped_item { weight; cap } ->
      Printf.sprintf "capped-item(w=%.4g, cap=%.4g)" weight cap
