(* Bitset against a bool-array model: every operation the selection
   vectors rely on, on lengths 0-400 weighted towards word boundaries
   (multiples of 63, plus or minus one) and towards bit 62 of a word,
   its sign bit, where the word reads as a negative int. *)

module B = Qp_relational.Bitset

let width = 63

let model_indices model =
  List.filter (fun i -> model.(i)) (List.init (Array.length model) Fun.id)

let of_model model = B.init (Array.length model) (fun i -> model.(i))

let iter_list t =
  let acc = ref [] in
  B.iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let gen_model =
  QCheck2.Gen.(
    let boundary =
      let* k = int_range 0 6 and* d = int_range (-1) 1 in
      return (max 0 ((k * width) + d))
    in
    let* n = frequency [ (2, int_range 0 400); (3, boundary) ] in
    let* density = oneofl [ 0.0; 0.05; 0.5; 0.95; 1.0 ] in
    let* sign_bits = bool in
    let+ draws = array_repeat n (float_bound_exclusive 1.0) in
    Array.mapi
      (fun i x -> x < density || (sign_bits && i mod width = width - 1))
      draws)

let print_model model =
  String.init (Array.length model) (fun i -> if model.(i) then '1' else '0')

let prop name f =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count:1000 ~print:print_model gen_model f)

let prop_reads =
  prop "init/get/count/iter/to_array match the model" (fun model ->
      let t = of_model model in
      let expected = model_indices model in
      B.length t = Array.length model
      && Array.for_all Fun.id (Array.mapi (fun i b -> B.get t i = b) model)
      && B.count t = List.length expected
      && iter_list t = expected
      && Array.to_list (B.to_array t) = expected)

let prop_init_order =
  prop "init applies f once per index, in order" (fun model ->
      let calls = ref [] in
      ignore
        (B.init (Array.length model) (fun i ->
             calls := i :: !calls;
             model.(i)));
      List.rev !calls = List.init (Array.length model) Fun.id)

(* Tail bits stay clear: a bit past the length would show up in
   [to_array] or [count], or survive the round trip through [full]. *)
let prop_complement =
  prop "complement_into flips exactly the valid bits" (fun model ->
      let n = Array.length model in
      let t = of_model model in
      B.complement_into t;
      let flipped = model_indices (Array.map not model) in
      let once = Array.to_list (B.to_array t) = flipped && B.count t = List.length flipped in
      B.complement_into t;
      once && Array.to_list (B.to_array t) = model_indices model
      && B.count t = List.length (model_indices model)
      &&
      let u = B.full n in
      B.union_into u t;
      B.count u = n)

let prop_full =
  prop "full sets every bit and no tail bit" (fun model ->
      let n = Array.length model in
      let f = B.full n in
      let all = List.init n Fun.id in
      B.count f = n
      && Array.to_list (B.to_array f) = all
      && iter_list f = all
      &&
      (B.complement_into f;
       B.count f = 0 && B.to_array f = [||]))

(* The non-kernel filter path of the columnar engine clears the bit it
   is visiting; clearing later bits of the same word must not hide them
   either, since each word is read before its bits are visited. *)
let prop_clear_while_iterating =
  prop "iter visits the original bits while the callback clears" (fun model ->
      let n = Array.length model in
      let t = of_model model in
      let visited = ref [] in
      B.iter
        (fun i ->
          visited := i :: !visited;
          if i mod 3 = 0 then B.clear t i;
          if i mod width < width - 1 && i + 1 < n then B.clear t (i + 1))
        t;
      let expected = model_indices model in
      List.rev !visited = expected
      && Array.to_list (B.to_array t)
         = List.filter
             (fun i ->
               i mod 3 <> 0
               && not (i mod width > 0 && model.(i - 1)))
             expected)

let test_sign_bit () =
  List.iter
    (fun n ->
      let t = B.create n in
      let bits = List.filter (fun i -> i < n) [ 0; 61; 62; 63; 125; 126 ] in
      List.iter (B.set t) bits;
      Alcotest.(check (list int)) (Printf.sprintf "len %d: iter" n) bits (iter_list t);
      Alcotest.(check int) (Printf.sprintf "len %d: count" n) (List.length bits)
        (B.count t))
    [ 62; 63; 64; 126; 127; 200 ]

let suite =
  ( "bitset",
    [
      Alcotest.test_case "sign bit and word edges" `Quick test_sign_bit;
      prop_reads;
      prop_init_order;
      prop_complement;
      prop_full;
      prop_clear_while_iterating;
    ] )
