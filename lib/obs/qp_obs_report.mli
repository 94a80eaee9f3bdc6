(** Offline aggregation of {!Qp_obs} trace files.

    Reads the Chrome trace-event file written by
    {!Qp_obs.write_chrome_trace} — JSONL, or the JSON array form that
    Perfetto loads — and renders a self-time/total-time table per span
    label with a nearest-rank latency summary (p50/p95/max), a duration
    histogram for the hottest label, and the final counter and
    instant-event totals — the [qpricing report] subcommand. *)

type t
(** An aggregated trace. *)

(** Per-label span aggregate. Durations are inclusive (whole span);
    [self_us] subtracts time spent in direct child spans. *)
type span_stat = {
  label : string;
  count : int;
  total_us : float;  (** sum of inclusive durations, microseconds *)
  self_us : float;  (** [total_us] minus direct children, clamped at 0 *)
  durations_us : float array;  (** one inclusive duration per span *)
}

val of_file : string -> (t, string) result
(** Parse and aggregate a trace file: one JSON array of records
    (empty [{}] records skipped) when its first non-blank byte is
    ['['], JSONL otherwise. Always returns [Error _] — never raises — on
    malformed input: unreadable files, truncated JSONL, records with
    missing or non-numeric timestamps/durations, and empty traces (no
    records at all) all carry a message naming the offending line or
    record. *)

val spans : t -> span_stat list
(** Aggregates per span label, in first-seen order. *)

val counters : t -> (string * float) list
(** Final counter samples ([ph:"C"]), sorted by label. *)

val gauges : t -> (string * float) list
(** Final gauge samples ([ph:"C"] tagged [kind=gauge] by
    {!Qp_obs.to_chrome_lines}), sorted by label. Traces written before
    the tag existed report their gauges under {!counters}. *)

(** Summary of one {!Qp_obs.observe_ns} histogram, as exported in the
    trace's [kind=histogram] samples. Nanoseconds. *)
type hist_stat = {
  hcount : int;  (** observations *)
  sum_ns : float;  (** total duration *)
  max_ns : float;  (** longest observation *)
  p50_ns : float;  (** bucket-interpolated median *)
  p95_ns : float;  (** bucket-interpolated 95th percentile *)
}

val histograms : t -> (string * hist_stat) list
(** Out-of-band stage histograms (e.g. [simplex.btran]), sorted by
    label. *)

val event_reasons : t -> (string * string * int) list
(** Instant events that carry a string ["reason"] arg, counted per
    [(label, reason)] in first-seen order — e.g. how many
    ["simplex.warm_fallback"] events each failing warm step caused. *)

val render : t -> string
(** The human-readable report: span table sorted by self time, hottest
    label's duration histogram, counters, gauges, instant-event
    counts and their breakdown by ["reason"] arg. *)

val report_file : string -> (string, string) result
(** [of_file] followed by {!render}. *)

(** {2 Trace-to-trace regression diff}

    The [qpricing report --diff OLD NEW] engine: compares two
    aggregated traces per span label and flags labels whose self time
    or p95 regressed beyond a threshold. *)

(** One label's before/after comparison. Counts are 0 on the side the
    label is absent from. *)
type diff_row = {
  dlabel : string;  (** span label *)
  old_count : int;  (** spans in the old trace *)
  new_count : int;  (** spans in the new trace *)
  old_self_us : float;  (** self time in the old trace, microseconds *)
  new_self_us : float;  (** self time in the new trace, microseconds *)
  old_p95_us : float;  (** p95 inclusive duration, old trace *)
  new_p95_us : float;  (** p95 inclusive duration, new trace *)
  flagged : bool;  (** regressed beyond the thresholds *)
}

type diff = {
  rows : diff_row list;  (** sorted by self-time regression, worst first *)
  threshold_pct : float;  (** relative threshold used *)
  min_regression_us : float;  (** absolute floor used *)
}
(** A full per-label comparison of two traces. *)

val diff : ?threshold_pct:float -> ?min_regression_us:float -> t -> t -> diff
(** [diff old new] compares per-label self time and p95. A label is
    {e flagged} when present in both traces and either metric grew by
    more than [threshold_pct] percent (default 25) {e and} more than
    [min_regression_us] microseconds (default 100 — so microsecond
    noise on tiny labels never trips the gate). Labels only present on
    one side are reported but never flagged. *)

val diff_flagged : diff -> diff_row list
(** The rows whose thresholds tripped, worst regression first. *)

val render_diff : diff -> string
(** Human-readable diff table (old/new self time and p95 with percent
    deltas, [!!] marking flagged rows) plus a one-line verdict. *)

val diff_files :
  ?threshold_pct:float ->
  ?min_regression_us:float ->
  string ->
  string ->
  (diff, string) result
(** [diff_files old_path new_path]: {!of_file} both, then {!diff}. *)
