(** The one JSON codec: the printer behind trace JSONL
    ({!Qp_obs.write_chrome_trace}) and the [BENCH_*.json] files, and the
    parser that reads both back ([qpricing report], [bench_diff]).

    A finite float prints in the shortest of [%.15g], [%.16g] and
    [%.17g] that reads back bit-equal (so integer counters print as
    integers); an infinite or NaN float prints as [null]. Strings escape
    ['"'], ['\\'] and control characters and pass every other byte
    through. So [parse (to_string v) = Ok v] when [v]'s floats are finite. *)

(** A JSON value. Object members keep their order. *)
type t =
  | Null
  | Bool of bool
  | Num of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact, on one line: one trace JSONL record. *)

val to_file : string -> t -> unit
(** [to_file path v] writes [v] with each top-level member, and each
    element of an array that is [v] or a top-level member's value, on a
    line of its own, so a committed file diffs record by record.
    @raise Sys_error when [path] cannot be written. *)

val parse : string -> (t, string) result
(** Parse one complete JSON value (leading and trailing whitespace
    allowed). Malformed input is an [Error] naming the byte offset;
    [parse] never raises. *)

val member : string -> t -> t option
(** [member key j] is the field [key] of object [j], if any. *)

val str : t -> string option
(** The payload of a [String], if the value is one. *)

val num : t -> float option
(** The payload of a [Num], if the value is one. *)

val items : t -> t list option
(** The elements of a [List], if the value is one. *)
