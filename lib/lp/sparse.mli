(** Sparse vectors: the LP layer's one storage format.

    A vector stores only its nonzero entries as parallel (index, value)
    arrays with strictly increasing indices. The LP input rows of
    {!Simplex} and {!Lp} are these (indexed by variable); {!Simplex}'s
    revised engine transposes them into its columns (indexed by row),
    and {!Basis} stores its eta vectors the same way. *)

type col = { idx : int array; v : float array }
(** Nonzero entries of one column; [idx] strictly increasing. *)

val empty : col
(** The all-zero column. *)

val nnz : col -> int
(** Number of stored nonzeros. *)

val of_dense : float array -> col
(** Compress a dense vector, dropping exact zeros. *)

val unit : int -> float -> col
(** [unit r x] is the column with single entry [x] at row [r]
    ({!empty} when [x = 0]). *)

val scaled : float -> col -> col
(** [scaled s c] multiplies every entry by [s] (shares [c] when
    [s = 1.0]). *)

val dot : col -> float array -> float
(** [dot c y] is the inner product of [c] with a dense vector. *)

val scatter : col -> float array -> unit
(** [scatter c w] writes [c]'s entries into dense [w] (caller zeroes
    [w] first). *)

val iter : (int -> float -> unit) -> col -> unit
(** Iterate over the (row, value) nonzeros in index order. *)
