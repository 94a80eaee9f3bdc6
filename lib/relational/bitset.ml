(* Packed bit vector over 63-bit words. The predicate kernels build one
   of these per conjunct and combine them with whole-word boolean
   operations; the tail bits of the last word are kept zero so that
   word-wise combination never sets a bit past [len]. *)

type t = { words : int array; len : int }

let width = 63

let nwords len = (len + width - 1) / width

let create len = { words = Array.make (nwords len) 0; len }

(* Mask keeping only the valid bits of the last word. *)
let tail_mask len =
  let r = len mod width in
  if r = 0 then -1 else (1 lsl r) - 1

let full len =
  let t = { words = Array.make (nwords len) (-1); len } in
  let n = nwords len in
  if n > 0 then t.words.(n - 1) <- t.words.(n - 1) land tail_mask len;
  t

let length t = t.len

let get t i = (t.words.(i / width) lsr (i mod width)) land 1 = 1

let set t i = t.words.(i / width) <- t.words.(i / width) lor (1 lsl (i mod width))

let clear t i =
  t.words.(i / width) <- t.words.(i / width) land lnot (1 lsl (i mod width))

let init len f =
  let t = create len in
  for wi = 0 to nwords len - 1 do
    let base = wi * width in
    let hi = min (width - 1) (len - 1 - base) in
    let acc = ref 0 in
    for b = 0 to hi do
      acc := !acc lor (Bool.to_int (f (base + b)) lsl b)
    done;
    t.words.(wi) <- !acc
  done;
  t

let check_len a b op =
  if a.len <> b.len then invalid_arg ("Bitset." ^ op ^ ": length mismatch")

let inter_into dst src =
  check_len dst src "inter_into";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let union_into dst src =
  check_len dst src "union_into";
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let complement_into t =
  let n = nwords t.len in
  for i = 0 to n - 1 do
    t.words.(i) <- lnot t.words.(i)
  done;
  if n > 0 then t.words.(n - 1) <- t.words.(n - 1) land tail_mask t.len

(* Shift a copy of each nonzero word down to zero: one step per bit up
   to the highest set bit, so a word costs at most [width] steps. The
   word is read into a local before [f] runs, so [f] may clear bits of
   [t] itself. [lsr] is logical, so bit 62 (the sign bit) needs no care. *)
let iter f t =
  for wi = 0 to Array.length t.words - 1 do
    let w = ref t.words.(wi) in
    let i = ref (wi * width) in
    while !w <> 0 do
      if !w land 1 = 1 then f !i;
      w := !w lsr 1;
      incr i
    done
  done

(* SWAR popcount on a 63-bit word. The literals are the usual 64-bit
   masks, whose bit 63 an OCaml int drops; every byte sum fits in the
   top byte's seven bits. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let m2 = 0x3333_3333_3333_3333 in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let count t = Array.fold_left (fun c w -> c + popcount w) 0 t.words

let to_array t =
  let out = Array.make (count t) 0 in
  let k = ref 0 in
  iter
    (fun i ->
      out.(!k) <- i;
      incr k)
    t;
  out
