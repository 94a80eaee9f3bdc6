(* Differential tests of the flat eta file (Qp_lp.Basis) against the
   record-based one it replaced (basis_reference.ml): on seeded random
   push/ftran/btran/reset sequences every vector must be bit-identical,
   and fill and eta count must agree. The fused btran2 must equal two
   separate BTRANs. *)

module B = Qp_lp.Basis
module Ref = Basis_reference

let bits a = Array.map Int64.bits_of_float a

let check_vec what got want =
  if bits got <> bits want then
    Alcotest.failf "%s: [%s] <> reference [%s]" what
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") got)))
      (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") want)))

(* Entries are zero often (sparse columns, exact-zero skipping), and
   otherwise drawn wide enough that rounding differs between orders. *)
let entry rand =
  match Random.State.int rand 3 with
  | 0 -> 0.0
  | _ -> Random.State.float rand 4.0 -. 2.0

(* Identity etas are skipped; a unit pivot with off-pivot nonzeros (a
   slack entering) and a lone non-unit pivot are not. *)
let column rand m ~r =
  let d = Array.init m (fun _ -> entry rand) in
  (match Random.State.int rand 6 with
  | 0 -> Array.fill d 0 m 0.0; d.(r) <- 1.0
  | 1 -> Array.fill d 0 m 0.0; d.(r) <- 0.5 +. Random.State.float rand 2.0
  | 2 -> d.(r) <- 1.0
  | _ ->
      d.(r) <-
        (if Random.State.bool rand then 1.0 else -1.0)
        *. (0.25 +. Random.State.float rand 2.0));
  d

type tally = { mutable identity : int; mutable grown : int; mutable fused : int }

let run_sequence rand tally =
  let m = 1 + Random.State.int rand 40 in
  let flat = B.create m and oracle = Ref.create m in
  let vec () = Array.init m (fun _ -> entry rand) in
  let agree what =
    Alcotest.(check int) (what ^ ": eta_count") (Ref.eta_count oracle) (B.eta_count flat);
    Alcotest.(check int) (what ^ ": fill") (Ref.fill oracle) (B.fill flat)
  in
  let longest = ref 0 in
  for step = 1 to 20 + Random.State.int rand 200 do
    let what = Printf.sprintf "m=%d step %d" m step in
    (match Random.State.int rand 10 with
    | 0 when Random.State.int rand 4 = 0 ->
        B.reset flat;
        Ref.reset oracle
    | 0 | 1 | 2 | 3 ->
        let r = Random.State.int rand m in
        let d = column rand m ~r in
        if Array.for_all2 (fun x i -> x = (if i = r then 1.0 else 0.0)) d (Array.init m Fun.id)
        then tally.identity <- tally.identity + 1;
        B.push flat ~r d;
        Ref.push oracle ~r (Array.copy d)
    | 4 | 5 ->
        let w = vec () in
        let w' = Array.copy w in
        B.ftran flat w;
        Ref.ftran oracle w';
        check_vec (what ^ ": ftran") w w'
    | 6 | 7 ->
        let y = vec () in
        let y' = Array.copy y in
        B.btran flat y;
        Ref.btran oracle y';
        check_vec (what ^ ": btran") y y'
    | _ ->
        let a = vec () and b = vec () in
        let a' = Array.copy a and b' = Array.copy b in
        B.btran2 flat a b;
        Ref.btran oracle a';
        Ref.btran oracle b';
        check_vec (what ^ ": btran2 first") a a';
        check_vec (what ^ ": btran2 second") b b';
        tally.fused <- tally.fused + 1);
    agree what;
    longest := max !longest (B.eta_count flat)
  done;
  (* past the initial 16 etas (the entry arrays start at max 16 m) *)
  if !longest > 16 then tally.grown <- tally.grown + 1

let test_flat_matches_reference () =
  let rand = Random.State.make [| 20251017 |] in
  let tally = { identity = 0; grown = 0; fused = 0 } in
  for _ = 1 to 300 do
    run_sequence rand tally
  done;
  Alcotest.(check bool) "identity etas exercised" true (tally.identity >= 100);
  Alcotest.(check bool) "growth past the initial capacity exercised" true
    (tally.grown >= 40);
  Alcotest.(check bool) "btran2 exercised" true (tally.fused >= 100)

(* Growth of the shared index/value arrays specifically: dense columns
   overflow the initial max 16 m entries within a few pushes, long
   before the eta arrays fill. *)
let test_dense_growth () =
  let m = 64 in
  let rand = Random.State.make [| 7 |] in
  let flat = B.create m and oracle = Ref.create m in
  for k = 0 to 99 do
    let r = k mod m in
    let d = Array.init m (fun _ -> Random.State.float rand 2.0 -. 1.0) in
    d.(r) <- 1.5;
    B.push flat ~r d;
    Ref.push oracle ~r (Array.copy d)
  done;
  Alcotest.(check int) "fill" (Ref.fill oracle) (B.fill flat);
  Alcotest.(check bool) "grew past 16 etas and 16 m entries" true
    (B.eta_count flat > 16 && B.fill flat > 16 * m);
  let w = Array.init m (fun i -> Float.of_int (i + 1)) in
  let w' = Array.copy w in
  B.ftran flat w;
  Ref.ftran oracle w';
  check_vec "ftran after growth" w w';
  let y = Array.init m (fun i -> Float.of_int (m - i)) in
  let y' = Array.copy y in
  B.btran flat y;
  Ref.btran oracle y';
  check_vec "btran after growth" y y'

let suite =
  let t name f = Alcotest.test_case name `Quick f in
  ( "basis",
    [
      t "flat eta file matches the record-based oracle bit-for-bit"
        test_flat_matches_reference;
      t "flat eta file grows past its initial capacity" test_dense_growth;
    ] )
