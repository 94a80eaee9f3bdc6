(** Product-form (eta-file) basis factorization for the revised
    simplex engine in {!Simplex}.

    The basis inverse is represented as a product of elementary eta
    matrices, one per pivot: solving with it ([ftran]/[btran]) costs
    the fill of the file rather than O(m^2). An empty file represents
    the identity — which is exactly the initial basis of the
    transformed problem (slacks and artificials). The engine rebuilds
    the file from scratch (reinversion) when it grows past its
    refactorization interval. *)

type t

val create : int -> t
(** [create m] — an empty factorization (the identity) over [m] rows. *)

val reset : t -> unit
(** Drop every eta, back to the identity; storage is retained. *)

val eta_count : t -> int
(** Number of etas currently in the file. *)

val fill : t -> int
(** Total nonzeros stored across the file — the cost of one
    [ftran]/[btran] pass, and the fill-in gauge exported to
    {!Qp_obs}. *)

val push : t -> r:int -> float array -> unit
(** [push t ~r d] appends the eta for a pivot on row [r] of the
    (dense, already FTRAN'd) entering column [d]. Exact zeros are not
    stored; a trivial identity eta ([d = e_r]) is skipped entirely. *)

val ftran : t -> float array -> unit
(** [ftran t w] replaces dense [w] with [B^-1 w] by applying every eta
    inverse in file order. *)

val btran : t -> float array -> unit
(** [btran t y] replaces dense [y] with [y B^-1] by applying every eta
    inverse in reverse file order. *)

val btran2 : t -> float array -> float array -> unit
(** [btran2 t a b] is [btran t a; btran t b] in one walk of the file:
    both results are bit-identical to the two separate passes. [a] and
    [b] must be distinct arrays. *)
