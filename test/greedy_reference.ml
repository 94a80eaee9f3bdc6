(* Reference oracles for the greedy set covers of Qp_core.Bounds and
   Qp_core.Layering: the straightforward set-based versions, which
   recompute every candidate's gain from an [Int_set] of uncovered
   items on each step. The library's incremental kernels must choose
   the same edges in the same order (see test_covers.ml). *)

module Hypergraph = Qp_core.Hypergraph
module Int_set = Set.Make (Int)

(* Bounds' cover: repeatedly pick the edge minimizing valuation per
   newly covered item, skipping edges with the target's bundle. *)
let greedy_cover h (target : Hypergraph.edge) =
  let uncovered = ref (Int_set.of_list (Array.to_list target.items)) in
  let cover = ref [] in
  let edges = Hypergraph.edges h in
  let result = ref (Some []) in
  (try
     while not (Int_set.is_empty !uncovered) do
       let best = ref None in
       Array.iter
         (fun (e : Hypergraph.edge) ->
           if e.id <> target.id && e.items <> target.items then begin
             let gain =
               Array.fold_left
                 (fun acc j -> if Int_set.mem j !uncovered then acc + 1 else acc)
                 0 e.items
             in
             if gain > 0 then
               let ratio = e.valuation /. Float.of_int gain in
               match !best with
               | Some (r, _) when r <= ratio -> ()
               | _ -> best := Some (ratio, e)
           end)
         edges;
       match !best with
       | None ->
           result := None;
           raise Exit
       | Some (_, e) ->
           cover := e :: !cover;
           uncovered :=
             Array.fold_left (fun acc j -> Int_set.remove j acc) !uncovered e.items
     done;
     result := Some !cover
   with Exit -> ());
  !result

let items_of edges =
  List.fold_left
    (fun acc (e : Hypergraph.edge) ->
      Array.fold_left (fun acc j -> Int_set.add j acc) acc e.items)
    Int_set.empty edges

(* Layering's cover: greedy (most new items first, higher valuation
   breaking ties), then drop redundant edges cheapest first. *)
let minimal_cover edges =
  let universe = items_of edges in
  let uncovered = ref universe in
  let chosen = ref [] in
  let remaining = ref edges in
  while not (Int_set.is_empty !uncovered) do
    let gain (e : Hypergraph.edge) =
      Array.fold_left
        (fun acc j -> if Int_set.mem j !uncovered then acc + 1 else acc)
        0 e.items
    in
    let best =
      List.fold_left
        (fun acc e ->
          let g = gain e in
          match acc with
          | Some (bg, (be : Hypergraph.edge)) ->
              if g > bg || (g = bg && e.Hypergraph.valuation > be.valuation) then
                Some (g, e)
              else acc
          | None -> Some (g, e))
        None !remaining
    in
    match best with
    | Some (g, e) when g > 0 ->
        chosen := e :: !chosen;
        remaining := List.filter (fun (e' : Hypergraph.edge) -> e'.id <> e.id) !remaining;
        uncovered :=
          Array.fold_left (fun acc j -> Int_set.remove j acc) !uncovered e.items
    | _ -> assert false
  done;
  let by_value_asc =
    List.sort
      (fun (a : Hypergraph.edge) (b : Hypergraph.edge) ->
        compare a.valuation b.valuation)
      !chosen
  in
  let cover = ref !chosen in
  List.iter
    (fun (e : Hypergraph.edge) ->
      let without = List.filter (fun (e' : Hypergraph.edge) -> e'.id <> e.id) !cover in
      if Int_set.equal (items_of without) universe then cover := without)
    by_value_asc;
  !cover

let layers h =
  let non_empty =
    Array.to_list (Hypergraph.edges h)
    |> List.filter (fun (e : Hypergraph.edge) -> Array.length e.items > 0)
  in
  let rec peel remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
        let layer = minimal_cover remaining in
        let layer_ids = Int_set.of_list (List.map (fun (e : Hypergraph.edge) -> e.id) layer) in
        let rest =
          List.filter
            (fun (e : Hypergraph.edge) -> not (Int_set.mem e.id layer_ids))
            remaining
        in
        peel rest (layer :: acc)
  in
  peel non_empty []
