(* One minimal cover per call over the [remaining] edges: a greedy
   cover (most new items first, higher valuation breaking ties, then the
   earlier edge in [remaining]) followed by a minimalization pass that
   drops redundant edges, cheapest first — minimality is what
   guarantees unique items. Returns the layer in choice order, latest
   first.

   State shared across calls, sized by the whole hypergraph: the
   item -> edges index, a live gain per edge ([gain.(e)] = the number
   of [e]'s items still uncovered, valid for the remaining edges), and
   per item an uncovered flag and the number of chosen edges holding
   it. *)
let minimal_cover h =
  let item_edges = Hypergraph.item_edges h in
  let gain = Array.make (Hypergraph.m h) 0 in
  let uncovered = Array.make (Hypergraph.n_items h) false in
  let count = Array.make (Hypergraph.n_items h) 0 in
  fun (remaining : Hypergraph.edge list) ->
    (* The universe is every remaining edge's items, so each edge
       starts out gaining its whole bundle. *)
    let live = Array.of_list remaining in
    let left = ref 0 in
    Array.iter
      (fun (e : Hypergraph.edge) ->
        gain.(e.id) <- Array.length e.items;
        Array.iter
          (fun j ->
            if not uncovered.(j) then begin
              uncovered.(j) <- true;
              count.(j) <- 0;
              incr left
            end)
          e.items)
      live;
    let n_live = ref (Array.length live) in
    let chosen = ref [] in
    while !left > 0 do
      (* Gains only fall and a chosen edge's drops to 0, so edges at
         gain 0 leave the scan for good; the survivors keep their
         [remaining] order. *)
      let kept = ref 0 in
      let best = ref None in
      for i = 0 to !n_live - 1 do
        let e = live.(i) in
        let g = gain.(e.id) in
        if g > 0 then begin
          live.(!kept) <- e;
          incr kept;
          match !best with
          | Some (bg, (be : Hypergraph.edge)) ->
              if g > bg || (g = bg && e.valuation > be.valuation) then
                best := Some (g, e)
          | None -> best := Some (g, e)
        end
      done;
      n_live := !kept;
      match !best with
      | Some (_, e) ->
          chosen := e :: !chosen;
          Array.iter
            (fun j ->
              count.(j) <- count.(j) + 1;
              if uncovered.(j) then begin
                uncovered.(j) <- false;
                decr left;
                Array.iter (fun e' -> gain.(e') <- gain.(e') - 1) item_edges.(j)
              end)
            e.items
      | None -> assert false (* the remaining edges always cover their own items *)
    done;
    (* Minimalize: drop an edge when the others still cover everything,
       i.e. when each of its items is covered at least twice. Trying
       cheap edges first keeps value in the layer. *)
    let by_value_asc =
      List.sort
        (fun (a : Hypergraph.edge) (b : Hypergraph.edge) ->
          compare a.valuation b.valuation)
        !chosen
    in
    let dropped = Hashtbl.create 16 in
    List.iter
      (fun (e : Hypergraph.edge) ->
        if Array.for_all (fun j -> count.(j) >= 2) e.items then begin
          Array.iter (fun j -> count.(j) <- count.(j) - 1) e.items;
          Hashtbl.replace dropped e.id ()
        end)
      by_value_asc;
    List.filter (fun (e : Hypergraph.edge) -> not (Hashtbl.mem dropped e.id)) !chosen

let layers h =
  let non_empty =
    Array.to_list (Hypergraph.edges h)
    |> List.filter (fun (e : Hypergraph.edge) -> Array.length e.items > 0)
  in
  let minimal_cover = minimal_cover h in
  let peeled = Array.make (Hypergraph.m h) false in
  let rec peel remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
        let layer = minimal_cover remaining in
        List.iter (fun (e : Hypergraph.edge) -> peeled.(e.id) <- true) layer;
        let rest =
          List.filter (fun (e : Hypergraph.edge) -> not peeled.(e.id)) remaining
        in
        peel rest (layer :: acc)
  in
  peel non_empty []

let layer_value layer =
  List.fold_left (fun acc (e : Hypergraph.edge) -> acc +. e.valuation) 0.0 layer

let price_layer h layer =
  let w = Array.make (Hypergraph.n_items h) 0.0 in
  (* Count item occurrences within the layer; an item used once is the
     unique item minimality promises. *)
  let occurrences = Hashtbl.create 64 in
  List.iter
    (fun (e : Hypergraph.edge) ->
      Array.iter
        (fun j ->
          Hashtbl.replace occurrences j
            (1 + Option.value (Hashtbl.find_opt occurrences j) ~default:0))
        e.items)
    layer;
  List.iter
    (fun (e : Hypergraph.edge) ->
      match
        Array.find_opt (fun j -> Hashtbl.find occurrences j = 1) e.items
      with
      | Some j -> w.(j) <- e.valuation
      | None -> assert false (* impossible for a minimal cover *))
    layer;
  Pricing.Item w

let solve h =
  Qp_obs.with_span "layering.solve"
    ~args:(fun () -> [ ("edges", Qp_obs.Int (Hypergraph.m h)) ])
  @@ fun () ->
  match layers h with
  | [] -> Pricing.Item (Array.make (Hypergraph.n_items h) 0.0)
  | ls ->
      let best =
        List.fold_left
          (fun acc layer ->
            match acc with
            | Some best_layer when layer_value best_layer >= layer_value layer -> acc
            | _ -> Some layer)
          None ls
      in
      let best = Option.get best in
      Qp_obs.annotate (fun () ->
          [
            ("layers", Qp_obs.Int (List.length ls));
            ("best_layer_edges", Qp_obs.Int (List.length best));
            ("best_layer_value", Qp_obs.Float (layer_value best));
          ]);
      price_layer h best
