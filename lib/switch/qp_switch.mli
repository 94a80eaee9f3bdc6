(** Environment switches: each [QP_*] variable is declared once, next to
    the code it steers, and read by one rule. The value is trimmed;
    unset or blank means the default; choice names match in any case;
    anything else is an [Error] naming the accepted values, and {!get}
    exits 2 on it: a typo never silently means the default. *)

(** How a switch reads a trimmed, non-blank value. *)
type _ parser =
  | Choice : (string list * 'a) list -> 'a parser
      (** Lowercase names per value; the first one is canonical. *)
  | Positive_int : int parser  (** Decimal digits, at least 1. *)
  | Custom : (string -> ('a, string) result) * ('a -> string) -> 'a parser
      (** A grammar of its own, and a printer. *)

type 'a t
(** A declared switch. *)

val declare : string -> 'a parser -> default:'a -> 'a t
(** [declare var parser ~default] reads [var] once with {!get}, so a
    malformed value aborts the program at load time. *)

val name : 'a t -> string
(** The environment variable. *)

val parser : 'a t -> 'a parser
(** The parser, as declared. *)

val default : 'a t -> 'a
(** The value when the variable is unset or blank. *)

val parse : 'a t -> string -> ('a, string) result
(** The one rule; never raises. *)

val show : 'a t -> 'a -> string
(** The canonical spelling of a value. *)

val get : 'a t -> 'a
(** The override if {!set}, else the variable, read on every call so
    [putenv] takes effect, else the default. A malformed variable
    prints [NAME: message] and exits 2. *)

val set : 'a t -> 'a -> unit
(** Override the variable for the rest of the process. *)

val set_flag : 'a t -> string -> string -> unit
(** [set_flag sw flag text] {!parse}s a command-line flag's value and
    {!set}s it; on error it prints [flag: message] and exits 2. *)
