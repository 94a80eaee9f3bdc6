(* Sparse vectors: the storage unit of the LP layer — its input rows,
   the revised simplex's columns and the eta file. A vector keeps only
   its nonzero entries as parallel (index, value) arrays, indices
   strictly increasing. The constraint matrix of a pricing LP is a few
   percent dense, so per-iteration pricing over sparse columns is what
   lifts the O(rows * cols) per-pivot cost of the dense tableau. *)

type col = { idx : int array; v : float array }

let empty = { idx = [||]; v = [||] }

let nnz c = Array.length c.idx

let of_dense a =
  let n = ref 0 in
  Array.iter (fun x -> if x <> 0.0 then incr n) a;
  if !n = 0 then empty
  else begin
    let idx = Array.make !n 0 and v = Array.make !n 0.0 in
    let k = ref 0 in
    Array.iteri
      (fun i x ->
        if x <> 0.0 then begin
          idx.(!k) <- i;
          v.(!k) <- x;
          incr k
        end)
      a;
    { idx; v }
  end

let unit r x = if x = 0.0 then empty else { idx = [| r |]; v = [| x |] }

let scaled s c =
  if s = 1.0 then c else { c with v = Array.map (fun x -> s *. x) c.v }

let dot c (y : float array) =
  let s = ref 0.0 in
  for k = 0 to Array.length c.idx - 1 do
    s := !s +. (c.v.(k) *. y.(c.idx.(k)))
  done;
  !s

let scatter c (w : float array) =
  for k = 0 to Array.length c.idx - 1 do
    w.(c.idx.(k)) <- c.v.(k)
  done

let iter f c =
  for k = 0 to Array.length c.idx - 1 do
    f c.idx.(k) c.v.(k)
  done
