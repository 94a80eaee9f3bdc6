module Lp = Qp_lp.Lp

let sum_valuations = Hypergraph.sum_valuations

(* Greedy weighted set cover of a target's items using other edges:
   repeatedly pick the edge minimizing valuation per newly covered item,
   scanning in edge-id order and keeping the earlier edge unless the
   ratio is strictly smaller. Edges carrying the target's exact bundle
   never count: identical bundles are handled exactly by the
   uniform-cap group constraints, and letting them "cover" each other
   would double-penalize duplicates. The result lists the chosen edges
   last-chosen first; [None] when some item of the target appears in no
   other bundle.

   [greedy_cover h] builds the state every target shares: the
   item -> edges index, each edge's bundle id (the first edge id with
   the same items) and a live gain per edge, [gain.(e)] = the number of
   [e]'s items still uncovered. Covering an item decrements the gain of
   the edges holding it, so a step costs one pass over the candidates
   instead of a set lookup per candidate item. *)
let greedy_cover h =
  let edges = Hypergraph.edges h in
  let item_edges = Hypergraph.item_edges h in
  let bundle = Array.make (Array.length edges) 0 in
  let first_with = Hashtbl.create (Array.length edges) in
  Array.iter
    (fun (e : Hypergraph.edge) ->
      match Hashtbl.find_opt first_with e.items with
      | Some id -> bundle.(e.id) <- id
      | None ->
          Hashtbl.add first_with e.items e.id;
          bundle.(e.id) <- e.id)
    edges;
  (* Between calls every gain is 0 and no item is uncovered. *)
  let gain = Array.make (Array.length edges) 0 in
  let uncovered = Array.make (Hypergraph.n_items h) false in
  let cover_item j =
    uncovered.(j) <- false;
    Array.iter (fun e -> gain.(e) <- gain.(e) - 1) item_edges.(j)
  in
  fun (target : Hypergraph.edge) ->
    let candidates = ref [] in
    Array.iter
      (fun j ->
        uncovered.(j) <- true;
        Array.iter
          (fun e ->
            if gain.(e) = 0 && bundle.(e) <> bundle.(target.id) then
              candidates := e :: !candidates;
            gain.(e) <- gain.(e) + 1)
          item_edges.(j))
      target.items;
    let candidates = Array.of_list !candidates in
    Array.sort Int.compare candidates;
    let live = ref (Array.length candidates) in
    let remaining = ref (Array.length target.items) in
    let cover = ref [] in
    let stuck = ref false in
    while !remaining > 0 && not !stuck do
      (* Gains only fall, so an edge at gain 0 drops out for good. *)
      let kept = ref 0 in
      let best = ref (-1) and best_ratio = ref 0.0 in
      for i = 0 to !live - 1 do
        let e = candidates.(i) in
        let g = gain.(e) in
        if g > 0 then begin
          candidates.(!kept) <- e;
          incr kept;
          let ratio = edges.(e).valuation /. Float.of_int g in
          if !best < 0 || not (!best_ratio <= ratio) then begin
            best := e;
            best_ratio := ratio
          end
        end
      done;
      live := !kept;
      if !best < 0 then stuck := true
      else begin
        let e = edges.(!best) in
        cover := e :: !cover;
        Array.iter
          (fun j ->
            if uncovered.(j) then begin
              cover_item j;
              decr remaining
            end)
          e.items
      end
    done;
    if !stuck then begin
      Array.iter (fun j -> if uncovered.(j) then cover_item j) target.items;
      None
    end
    else Some !cover

(* Best uniform price over a multiset of valuations: the exact revenue
   cap for a set of buyers requesting the *same* bundle (the pricing
   function assigns one price per set, so identical bundles share it). *)
let uniform_cap values =
  let sorted = List.sort (fun a b -> compare b a) values in
  let best = ref 0.0 in
  List.iteri
    (fun j v ->
      let r = v *. Float.of_int (j + 1) in
      if r > !best then best := r)
    sorted;
  !best

let subadditive_bound_report ?max_covers ?(max_pivots = 400_000) h =
  let m = Hypergraph.m h in
  let total = sum_valuations h in
  if m = 0 then (0.0, None)
  else
    Qp_obs.with_span "bounds.subadditive"
      ~args:(fun () -> [ ("edges", Qp_obs.Int m) ])
    @@ fun () ->
    let p = Lp.create () in
    let r =
      Array.init m (fun e ->
          Lp.add_var p ~obj:1.0 ()
          |> fun v ->
          (* Empty bundles are free under any subadditive pricing
             (f(∅) = 0), so their extractable revenue is 0, not v_e. *)
          let edge = Hypergraph.edge h e in
          let cap =
            if Array.length edge.Hypergraph.items = 0 then 0.0
            else edge.Hypergraph.valuation
          in
          ignore (Lp.add_le p [ (1.0, v) ] cap);
          v)
    in
    (* Sound constraint: buyers with identical bundles face one price,
       so as a group they cannot beat the optimal uniform price on
       their valuations. *)
    let groups = Hashtbl.create m in
    Array.iter
      (fun (e : Hypergraph.edge) ->
        let key = Array.to_list e.items in
        let cur = Option.value (Hashtbl.find_opt groups key) ~default:[] in
        Hashtbl.replace groups key (e :: cur))
      (Hypergraph.edges h);
    Hashtbl.iter
      (fun _ es ->
        match es with
        | [] | [ _ ] -> ()
        | _ ->
            let cap =
              uniform_cap (List.map (fun (e : Hypergraph.edge) -> e.valuation) es)
            in
            let terms = List.map (fun (e : Hypergraph.edge) -> (1.0, r.(e.id))) es in
            ignore (Lp.add_le p terms cap))
      groups;
    let by_valuation_desc =
      Array.to_list (Hypergraph.edges h)
      |> List.sort (fun (a : Hypergraph.edge) b -> compare b.valuation a.valuation)
    in
    let max_rows = Option.value max_covers ~default:m in
    let budget = ref max_rows in
    let cover_of = greedy_cover h in
    List.iter
      (fun (e : Hypergraph.edge) ->
        if !budget > 0 && Array.length e.items > 0 then
          match cover_of e with
          | Some cover ->
              let cover_value =
                List.fold_left
                  (fun acc (c : Hypergraph.edge) -> acc +. c.valuation)
                  0.0 cover
              in
              (* Only add constraints that actually bite; r_e <= v_e is
                 already present. *)
              if cover_value < e.valuation then begin
                decr budget;
                let terms =
                  (1.0, r.(e.id))
                  :: List.map (fun (c : Hypergraph.edge) -> (-1.0, r.(c.id))) cover
                in
                ignore (Lp.add_le p terms 0.0)
              end
          | None -> ())
      by_valuation_desc;
    Qp_obs.annotate (fun () ->
        [
          ("cover_rows", Qp_obs.Int (max_rows - !budget));
          ("rows", Qp_obs.Int (Lp.constr_count p));
        ]);
    (* Routed through the batch API: the expansion is captured once and
       the solve shares the warm-capable resolve path (a single member,
       so it runs cold — but stays on the sweep-audited code path). *)
    match Lp.Batch.resolve (Lp.Batch.prepare ~max_pivots p) with
    | Ok sol -> (Float.min total (Lp.objective_value sol), None)
    | Error e ->
        (* The bound LP is feasible (r = 0) and bounded by construction,
           so any failure is solver-side. The trivial bound stays sound;
           report the widening so plots normalized by it can say why. *)
        Qp_obs.counter "bounds.degraded" 1;
        Qp_obs.event "bounds.degraded"
          ~args:(fun () -> [ ("reason", Qp_obs.Str (Lp.error_tag e)) ]);
        (total, Some e)

let subadditive_bound ?max_covers ?max_pivots h =
  fst (subadditive_bound_report ?max_covers ?max_pivots h)
