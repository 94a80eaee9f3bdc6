(* Product-form basis factorization (eta file) for the revised simplex.

   The basis inverse is never formed: it is represented as a product of
   elementary (eta) matrices, one appended per pivot. An eta records
   the FTRAN'd entering column d and its pivot row r; applying its
   inverse costs O(nnz d), so a whole FTRAN/BTRAN pass costs the fill
   of the file, not O(m^2).

   The initial basis of the transformed problem (slacks on rows with
   nonnegative rhs, artificials elsewhere) is exactly the identity, so
   an empty file is a valid factorization of it. [Simplex]'s revised
   engine rebuilds the file from the current basis columns (reinversion)
   when it grows past its refactorization interval, which both bounds
   the per-iteration cost and flushes accumulated roundoff.

   Layout: the file is flat. Eta k has pivot row [r.(k)], pivot element
   [pr.(k)] and its off-pivot nonzeros at positions
   [start.(k) .. start.(k+1) - 1] of the one shared [idx]/[v] pair, in
   increasing row order. A pass is then a walk over four contiguous
   arrays with no per-eta record to chase, and [push] allocates nothing
   once the arrays have grown to the file's working size. FTRAN and
   BTRAN perform the same floating-point operations in the same order
   as a file of per-eta records would (DESIGN.md, "The flat eta
   file"). *)

type t = {
  mutable r : int array;  (* pivot row, per eta *)
  mutable pr : float array;  (* pivot element d_r, per eta *)
  mutable start : int array;  (* per eta, offset into idx/v; length cap + 1 *)
  mutable idx : int array;  (* off-pivot nonzero rows of every d, eta by eta *)
  mutable v : float array;
  mutable len : int;
}

let create m =
  {
    r = Array.make 16 0;
    pr = Array.make 16 1.0;
    start = Array.make 17 0;
    idx = Array.make (max 16 m) 0;
    v = Array.make (max 16 m) 0.0;
    len = 0;
  }

let reset t = t.len <- 0
let eta_count t = t.len

(* Each eta counts its off-pivot nonzeros plus the pivot. *)
let fill t = t.start.(t.len) + t.len

let grow_etas t =
  let cap = Array.length t.r in
  let extend a fill =
    let b = Array.make (2 * cap) fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.r <- extend t.r 0;
  t.pr <- extend t.pr 1.0;
  let start = Array.make ((2 * cap) + 1) 0 in
  Array.blit t.start 0 start 0 (cap + 1);
  t.start <- start

(* Room for [n] more off-pivot entries. *)
let reserve t n =
  let used = t.start.(t.len) in
  let cap = Array.length t.idx in
  if used + n > cap then begin
    let cap' = max (2 * cap) (used + n) in
    let idx = Array.make cap' 0 and v = Array.make cap' 0.0 in
    Array.blit t.idx 0 idx 0 used;
    Array.blit t.v 0 v 0 used;
    t.idx <- idx;
    t.v <- v
  end

let push t ~r (d : float array) =
  let m = Array.length d in
  reserve t m;
  let base = t.start.(t.len) in
  let k = ref base in
  let idx = t.idx and v = t.v in
  for i = 0 to m - 1 do
    let x = d.(i) in
    if i <> r && x <> 0.0 then begin
      idx.(!k) <- i;
      v.(!k) <- x;
      incr k
    end
  done;
  let pr = d.(r) in
  (* An identity eta is a no-op; pivots on slack columns of the initial
     basis produce these during reinversion, so skipping them keeps the
     rebuilt file proportional to the non-trivial part of the basis.
     The entries just written past the file's end are then dead. *)
  if !k > base || pr <> 1.0 then begin
    if t.len = Array.length t.r then grow_etas t;
    t.r.(t.len) <- r;
    t.pr.(t.len) <- pr;
    t.len <- t.len + 1;
    t.start.(t.len) <- !k
  end

let ftran t (w : float array) =
  let rs = t.r and pr = t.pr and start = t.start and idx = t.idx and v = t.v in
  for k = 0 to t.len - 1 do
    let r = rs.(k) in
    let wr = w.(r) in
    if wr <> 0.0 then begin
      let wr = wr /. pr.(k) in
      w.(r) <- wr;
      for j = start.(k) to start.(k + 1) - 1 do
        let i = idx.(j) in
        w.(i) <- w.(i) -. (v.(j) *. wr)
      done
    end
  done

let btran t (y : float array) =
  let rs = t.r and pr = t.pr and start = t.start and idx = t.idx and v = t.v in
  for k = t.len - 1 downto 0 do
    let r = rs.(k) in
    let s = ref y.(r) in
    for j = start.(k) to start.(k + 1) - 1 do
      s := !s -. (y.(idx.(j)) *. v.(j))
    done;
    y.(r) <- !s /. pr.(k)
  done

(* Two BTRANs in one walk of the file: each vector sees exactly the
   operations [btran] would apply to it, so both results are
   bit-identical to two separate passes, at one pass's index traffic. *)
let btran2 t (a : float array) (b : float array) =
  let rs = t.r and pr = t.pr and start = t.start and idx = t.idx and v = t.v in
  for k = t.len - 1 downto 0 do
    let r = rs.(k) in
    let sa = ref a.(r) and sb = ref b.(r) in
    for j = start.(k) to start.(k + 1) - 1 do
      let i = idx.(j) and x = v.(j) in
      sa := !sa -. (a.(i) *. x);
      sb := !sb -. (b.(i) *. x)
    done;
    let p = pr.(k) in
    a.(r) <- !sa /. p;
    b.(r) <- !sb /. p
  done
