(* The record-based product-form eta file that Qp_lp.Basis replaced:
   one record per eta, each with its own index and value arrays. Kept
   only as a test oracle — the flat file must reproduce its vectors
   bit-for-bit, and its fill and eta count. *)

type eta = {
  r : int;  (* pivot row *)
  pr : float;  (* pivot element d_r *)
  idx : int array;  (* off-pivot nonzero rows of d *)
  v : float array;
}

type t = {
  mutable etas : eta array;
  mutable len : int;
  mutable fill : int;
}

let dummy_eta = { r = 0; pr = 1.0; idx = [||]; v = [||] }
let create _m = { etas = Array.make 16 dummy_eta; len = 0; fill = 0 }

let reset t =
  t.len <- 0;
  t.fill <- 0

let eta_count t = t.len
let fill t = t.fill

let push t ~r (d : float array) =
  let n = ref 0 in
  Array.iteri (fun i x -> if i <> r && x <> 0.0 then incr n) d;
  let pr = d.(r) in
  if !n = 0 && pr = 1.0 then ()
  else begin
    let idx = Array.make !n 0 and v = Array.make !n 0.0 in
    let k = ref 0 in
    Array.iteri
      (fun i x ->
        if i <> r && x <> 0.0 then begin
          idx.(!k) <- i;
          v.(!k) <- x;
          incr k
        end)
      d;
    if t.len = Array.length t.etas then begin
      let bigger = Array.make (2 * t.len) dummy_eta in
      Array.blit t.etas 0 bigger 0 t.len;
      t.etas <- bigger
    end;
    t.etas.(t.len) <- { r; pr; idx; v };
    t.len <- t.len + 1;
    t.fill <- t.fill + !n + 1
  end

let ftran t (w : float array) =
  for k = 0 to t.len - 1 do
    let e = t.etas.(k) in
    let wr = w.(e.r) in
    if wr <> 0.0 then begin
      let wr = wr /. e.pr in
      w.(e.r) <- wr;
      for j = 0 to Array.length e.idx - 1 do
        w.(e.idx.(j)) <- w.(e.idx.(j)) -. (e.v.(j) *. wr)
      done
    end
  done

let btran t (y : float array) =
  for k = t.len - 1 downto 0 do
    let e = t.etas.(k) in
    let s = ref y.(e.r) in
    for j = 0 to Array.length e.idx - 1 do
      s := !s -. (y.(e.idx.(j)) *. e.v.(j))
    done;
    y.(e.r) <- !s /. e.pr
  done
