(* Differential tests of the incremental greedy covers behind the §6.1
   subadditive bound (Bounds.greedy_cover) and Layering's minimal
   covers against the set-based reference oracles of
   greedy_reference.ml, plus bit-for-bit pins of the bound and the
   Layering revenue on real workload instances. *)

module H = Qp_core.Hypergraph
module Bounds = Qp_core.Bounds
module Layering = Qp_core.Layering
module Ref = Greedy_reference

(* Small instances rich in the cases the choice rules must agree on:
   duplicate bundles (a copy of an earlier edge's items), empty
   bundles, zero valuations, and valuations from a short integer range
   so that valuation-per-item ratios and gains tie often. *)
let random_h rand =
  let n = 1 + Random.State.int rand 10 in
  let m = 1 + Random.State.int rand 16 in
  let bundles = Array.make m [||] in
  let specs =
    Array.init m (fun i ->
        let items =
          match Random.State.int rand 10 with
          | 0 when i > 0 -> bundles.(Random.State.int rand i)
          | 1 -> [||]
          | _ ->
              Array.init
                (1 + Random.State.int rand n)
                (fun _ -> Random.State.int rand n)
        in
        bundles.(i) <- items;
        let valuation =
          if Random.State.int rand 8 = 0 then 0.0
          else Float.of_int (Random.State.int rand 7)
        in
        (Printf.sprintf "e%d" i, items, valuation))
  in
  H.create ~n_items:n specs

let ids edges = List.map (fun (e : H.edge) -> e.H.id) edges
let cover_ids = Option.map ids

(* Which of the interesting cases an instance exercises. *)
let features h =
  let es = Array.to_list (H.edges h) in
  let non_empty = List.filter (fun (e : H.edge) -> e.H.items <> [||]) es in
  let pairs p =
    List.exists
      (fun (a : H.edge) ->
        List.exists (fun (b : H.edge) -> a.H.id < b.H.id && p a b) non_empty)
      non_empty
  in
  let ratio (e : H.edge) = e.H.valuation /. Float.of_int (Array.length e.H.items) in
  [
    ("duplicate bundles", pairs (fun a b -> a.H.items = b.H.items));
    ("empty bundles", List.length non_empty < List.length es);
    ("zero valuations", List.exists (fun (e : H.edge) -> e.H.valuation = 0.0) es);
    ( "tied ratios",
      pairs (fun a b -> a.H.items <> b.H.items && ratio a = ratio b) );
  ]

let test_differential () =
  let rand = Random.State.make [| 2019 |] in
  let seen = Hashtbl.create 4 in
  for instance = 1 to 400 do
    let h = random_h rand in
    List.iter
      (fun (name, hit) ->
        if hit then
          Hashtbl.replace seen name
            (1 + Option.value (Hashtbl.find_opt seen name) ~default:0))
      (features h);
    (* One generator serves every target, as in the bound; the second,
       reversed pass checks that no state leaks between targets —
       including after a target that has no cover. *)
    let cover = Bounds.greedy_cover h in
    let targets = Array.to_list (H.edges h) in
    List.iter
      (fun (t : H.edge) ->
        Alcotest.(check (option (list int)))
          (Printf.sprintf "instance %d: cover of edge %d" instance t.H.id)
          (cover_ids (Ref.greedy_cover h t))
          (cover_ids (cover t)))
      (targets @ List.rev targets);
    Alcotest.(check (list (list int)))
      (Printf.sprintf "instance %d: layers" instance)
      (List.map ids (Ref.layers h))
      (List.map ids (Layering.layers h))
  done;
  List.iter
    (fun name ->
      let n = Option.value (Hashtbl.find_opt seen name) ~default:0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s in %d of 400 instances" name n)
        true (n >= 40))
    [ "duplicate bundles"; "empty bundles"; "zero valuations"; "tied ratios" ]

(* The bound and the Layering revenue under the runner's first
   uniform[1,100] draw, pinned to the values the set-based covers
   produced (printed with %.17g), bit for bit. *)
let check_pins label (inst : Qp_experiments.Workload_instances.t) ~bound
    ~layering =
  let module V = Qp_workloads.Valuations in
  let module Rng = Qp_util.Rng in
  let h =
    V.apply
      ~rng:(Rng.split (Rng.create 42) "val-1")
      (V.Uniform_val 100.0) inst.Qp_experiments.Workload_instances.hypergraph
  in
  let pin what expected actual =
    Alcotest.(check int64)
      (Printf.sprintf "%s %s %.17g is bit-identical" label what actual)
      (Int64.bits_of_float expected) (Int64.bits_of_float actual)
  in
  pin "subadditive bound" bound (Bounds.subadditive_bound h);
  pin "layering revenue" layering
    (Qp_core.Pricing.revenue (Layering.solve h) h)

let test_pins () =
  let module WI = Qp_experiments.Workload_instances in
  check_pins "uniform (default)"
    (WI.uniform ~scale:WI.Default ~seed:42 ())
    ~bound:8223.5487852884125 ~layering:3753.563404514447;
  check_pins "ssb (tiny)"
    (WI.ssb ~scale:WI.Tiny ~seed:42 ())
    ~bound:4808.1024141938442 ~layering:2090.0295244022504;
  check_pins "skewed (tiny)"
    (WI.skewed ~scale:WI.Tiny ~seed:42 ())
    ~bound:2904.8336787436001 ~layering:1755.3022905230021

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "covers",
    [
      t "greedy covers and layers match the set-based oracles (400 instances)"
        test_differential;
      t "bound and layering revenue bit-identical on uniform/ssb/skewed" test_pins;
    ] )
