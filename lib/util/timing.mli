(** Elapsed-time measurement for the runtime tables (Tables 4-6) and
    the solvers' time budgets, on the monotonic clock: a step of the
    wall clock (NTP, a manual reset) cannot stretch, shrink or negate a
    measured duration. *)

val now_s : unit -> float
(** Seconds on the monotonic clock, from an arbitrary origin: only
    differences of two readings mean anything. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and returns its result together with the
    elapsed seconds. *)

val time_runs : ?warmup:int -> runs:int -> (unit -> 'a) -> float
(** [time_runs ~warmup ~runs f] reports the mean elapsed seconds over
    [runs] executions after [warmup] (default 1) discarded executions —
    the measurement protocol of §6.1 ("average over 5 runs, where we
    discard the first run"). *)
