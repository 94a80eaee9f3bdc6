(* Unified tracing and metrics for the pricing pipeline.

   Determinism discipline: events are recorded into per-domain buffers
   (Domain.DLS); a parallel section captures each task's events into a
   private buffer ([capture]) and the caller splices them back in task
   order ([splice]) — the same index-ordered merge Qp_util.Parallel
   applies to results. The *structure* of the trace (span labels,
   nesting, order, args, counters, gauges) is therefore a pure function
   of the work, independent of QP_JOBS; only timestamps vary from run
   to run.

   A spliced buffer is kept as one [Lane] event rather than flattened:
   its spans ran on some worker, concurrently with its sibling tasks, so
   the Chrome export writes each lane on its own thread id (numbered in
   splice order, hence deterministically) with its real timestamps. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type ev =
  | Span_begin of { label : string; args : (string * arg) list; ts : float }
  | Span_end of { ts : float; args : (string * arg) list }
  | Instant of { label : string; args : (string * arg) list; ts : float }
  | Lane of ev list  (* a spliced task buffer, newest first *)

type buf = { mutable events : ev list (* newest first *) }

(* Per-domain recording state. [cur] is the buffer events append to;
   [pending] holds one end-args accumulator per open span, innermost
   first, so [annotate] can attach measurements to the span being
   closed. *)
type dstate = {
  mutable cur : buf;
  mutable pending : (string * arg) list ref list;
}

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* One monotonic clock for spans, histograms and out-of-band stage
   timings. Trace epoch: timestamps are seconds since
   [set_enabled true] / [reset], exported as microseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let clock_s () = Float.of_int (now_ns ()) *. 1e-9
let epoch = ref 0.0
let now () = clock_s () -. !epoch

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { cur = { events = [] }; pending = [] })

let state () = Domain.DLS.get dls

(* Counters are monotonic integer sums; integer addition is commutative
   and associative, so the totals are deterministic under any worker
   interleaving. Gauges record the maximum observed value — the only
   order-free aggregation for a "high-water mark" style metric. *)
let counters_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
let gauges_tbl : (string, float) Hashtbl.t = Hashtbl.create 16
let metrics_mu = Mutex.create ()

(* Histograms follow the counter discipline: every field is an integer
   (counts, nanosecond sums, extrema), so accumulation is commutative
   and the merged result is bit-identical under any domain
   interleaving. Buckets are fixed powers of two — bucket [i] covers
   [2^i, 2^(i+1)) ns (bucket 0 additionally catches 0 and 1 ns) — so
   two histograms are always mergeable without rebinning. *)
module Hist = struct
  let n_buckets = 48

  type snapshot = {
    count : int;
    sum_ns : int;
    min_ns : int;
    max_ns : int;
    gc_minor_words : int;
    gc_major_words : int;
    buckets : int array;
  }

  type t = {
    mutable h_count : int;
    mutable h_sum_ns : int;
    mutable h_min_ns : int;
    mutable h_max_ns : int;
    mutable h_gc_minor : int;
    mutable h_gc_major : int;
    h_buckets : int array;
  }

  let create () =
    {
      h_count = 0;
      h_sum_ns = 0;
      h_min_ns = max_int;
      h_max_ns = 0;
      h_gc_minor = 0;
      h_gc_major = 0;
      h_buckets = Array.make n_buckets 0;
    }

  let bucket_of_ns v =
    if v <= 1 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 1 do
        v := !v lsr 1;
        incr b
      done;
      min (n_buckets - 1) !b
    end

  let bucket_lower_ns i = if i = 0 then 0 else 1 lsl i
  let bucket_upper_ns i = 1 lsl (i + 1)

  let record ?(gc_minor = 0) ?(gc_major = 0) h ns =
    let ns = max 0 ns in
    h.h_count <- h.h_count + 1;
    h.h_sum_ns <- h.h_sum_ns + ns;
    if ns < h.h_min_ns then h.h_min_ns <- ns;
    if ns > h.h_max_ns then h.h_max_ns <- ns;
    h.h_gc_minor <- h.h_gc_minor + max 0 gc_minor;
    h.h_gc_major <- h.h_gc_major + max 0 gc_major;
    let b = bucket_of_ns ns in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1

  let snapshot h =
    {
      count = h.h_count;
      sum_ns = h.h_sum_ns;
      min_ns = h.h_min_ns;
      max_ns = h.h_max_ns;
      gc_minor_words = h.h_gc_minor;
      gc_major_words = h.h_gc_major;
      buckets = Array.copy h.h_buckets;
    }

  let empty =
    {
      count = 0;
      sum_ns = 0;
      min_ns = max_int;
      max_ns = 0;
      gc_minor_words = 0;
      gc_major_words = 0;
      buckets = Array.make n_buckets 0;
    }

  let merge a b =
    {
      count = a.count + b.count;
      sum_ns = a.sum_ns + b.sum_ns;
      min_ns = min a.min_ns b.min_ns;
      max_ns = max a.max_ns b.max_ns;
      gc_minor_words = a.gc_minor_words + b.gc_minor_words;
      gc_major_words = a.gc_major_words + b.gc_major_words;
      buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
    }

  (* Nearest-rank into the bucket holding that rank, then linear
     interpolation inside the bucket, clamped to the observed extrema
     so single-sample histograms report the exact value. *)
  let quantile_ns s q =
    if s.count = 0 then 0.0
    else begin
      let q = Float.max 0.0 (Float.min 100.0 q) in
      let rank =
        max 1 (int_of_float (Float.ceil (q /. 100.0 *. float_of_int s.count)))
      in
      let i = ref 0 and seen = ref 0 in
      while !seen + s.buckets.(!i) < rank && !i < n_buckets - 1 do
        seen := !seen + s.buckets.(!i);
        incr i
      done;
      let inside = s.buckets.(!i) in
      let est =
        if inside = 0 then float_of_int (bucket_lower_ns !i)
        else begin
          let lo = float_of_int (bucket_lower_ns !i)
          and hi = float_of_int (bucket_upper_ns !i) in
          let frac = (float_of_int (rank - !seen) -. 0.5) /. float_of_int inside in
          lo +. ((hi -. lo) *. frac)
        end
      in
      Float.max (float_of_int s.min_ns) (Float.min (float_of_int s.max_ns) est)
    end
end

let hist_tbl : (string, Hist.t) Hashtbl.t = Hashtbl.create 32

(* Shared by [with_span] (automatic) and [observe_ns] (manual). Called
   only on the enabled path. *)
let hist_observe label ~ns ~gc_minor ~gc_major =
  Mutex.lock metrics_mu;
  let h =
    match Hashtbl.find_opt hist_tbl label with
    | Some h -> h
    | None ->
        let h = Hist.create () in
        Hashtbl.add hist_tbl label h;
        h
  in
  Hist.record ~gc_minor ~gc_major h ns;
  Mutex.unlock metrics_mu

let set_enabled on =
  if on && not (enabled ()) then epoch := clock_s ();
  Atomic.set enabled_flag on

let reset () =
  let st = state () in
  st.cur <- { events = [] };
  st.pending <- [];
  Mutex.lock metrics_mu;
  Hashtbl.reset counters_tbl;
  Hashtbl.reset gauges_tbl;
  Hashtbl.reset hist_tbl;
  Mutex.unlock metrics_mu;
  epoch := clock_s ()

(* Duration and GC-delta recording live outside the trace buffer on
   purpose: wall time and promoted-word counts are timing-dependent, so
   attaching them as span args would break the bit-identical
   [structure] contract. Aggregated into per-label histograms they only
   affect [histograms ()], whose integer counts stay deterministic. *)
let with_span ?args label f =
  if not (enabled ()) then f ()
  else begin
    let st = state () in
    let bargs = match args with None -> [] | Some g -> g () in
    let t0 = now () in
    st.cur.events <- Span_begin { label; args = bargs; ts = t0 } :: st.cur.events;
    let endargs = ref [] in
    st.pending <- endargs :: st.pending;
    (* Gc.counters, not Gc.quick_stat: quick_stat's minor_words only
       advances at collection boundaries, so short spans would read an
       allocation delta of zero. counters reads the live young pointer. *)
    let minor0, _, major0 = Gc.counters () in
    Fun.protect
      ~finally:(fun () ->
        let minor1, _, major1 = Gc.counters () in
        (st.pending <- (match st.pending with _ :: tl -> tl | [] -> []));
        let t1 = now () in
        st.cur.events <- Span_end { ts = t1; args = !endargs } :: st.cur.events;
        hist_observe label
          ~ns:(int_of_float ((t1 -. t0) *. 1e9))
          ~gc_minor:(int_of_float (minor1 -. minor0))
          ~gc_major:(int_of_float (major1 -. major0)))
      f
  end

let observe_ns label ns =
  if enabled () then hist_observe label ~ns ~gc_minor:0 ~gc_major:0

let annotate args =
  if enabled () then
    let st = state () in
    match st.pending with
    | r :: _ -> r := !r @ args ()
    | [] -> ()

let event ?args label =
  if enabled () then begin
    let st = state () in
    let eargs = match args with None -> [] | Some g -> g () in
    st.cur.events <- Instant { label; args = eargs; ts = now () } :: st.cur.events
  end

let counter label n =
  if enabled () then begin
    Mutex.lock metrics_mu;
    Hashtbl.replace counters_tbl label
      (n + Option.value (Hashtbl.find_opt counters_tbl label) ~default:0);
    Mutex.unlock metrics_mu
  end

let gauge_max label v =
  if enabled () then begin
    Mutex.lock metrics_mu;
    (match Hashtbl.find_opt gauges_tbl label with
    | Some old when old >= v -> ()
    | _ -> Hashtbl.replace gauges_tbl label v);
    Mutex.unlock metrics_mu
  end

(* --- capture / splice (the Parallel integration) --------------------- *)

let empty_buf = { events = [] }

let capture f =
  if not (enabled ()) then (f (), empty_buf)
  else begin
    let st = state () in
    let saved_cur = st.cur and saved_pending = st.pending in
    let fresh = { events = [] } in
    st.cur <- fresh;
    st.pending <- [];
    Fun.protect
      ~finally:(fun () ->
        st.cur <- saved_cur;
        st.pending <- saved_pending)
      (fun () ->
        let r = f () in
        (r, fresh))
  end

let splice b =
  if enabled () && b.events <> [] then begin
    let st = state () in
    st.cur.events <- Lane b.events :: st.cur.events
  end

(* --- introspection ---------------------------------------------------- *)

(* [f] sees every event in recording order; a lane is entered where it
   was spliced, bracketed by [on_lane]'s enter/leave calls. *)
let rec walk ?(on_lane = fun _ -> ()) f events =
  List.iter
    (function
      | Lane inner ->
          on_lane `Enter;
          walk ~on_lane f inner;
          on_lane `Leave
      | ev -> f ev)
    (List.rev events)

let span_count () =
  let n = ref 0 in
  walk (function Span_begin _ -> incr n | _ -> ()) (state ()).cur.events;
  !n

let counters () =
  Mutex.lock metrics_mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters_tbl [] in
  Mutex.unlock metrics_mu;
  List.sort compare l

let gauges () =
  Mutex.lock metrics_mu;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges_tbl [] in
  Mutex.unlock metrics_mu;
  List.sort compare l

let histograms () =
  Mutex.lock metrics_mu;
  let l = Hashtbl.fold (fun k h acc -> (k, Hist.snapshot h) :: acc) hist_tbl [] in
  Mutex.unlock metrics_mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let arg_to_string = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.17g" f
  | Str s -> s
  | Bool b -> string_of_bool b

let args_to_string args =
  String.concat " "
    (List.map (fun (k, v) -> k ^ "=" ^ arg_to_string v) args)

let structure () =
  let b = Buffer.create 4096 in
  let depth = ref 0 in
  let indent () = String.make (2 * !depth) ' ' in
  (* Span_end args belong to the span just closed; re-print them on the
     closing line only when non-empty so quiet spans stay one line. *)
  walk
    (fun ev ->
      match ev with
      | Span_begin { label; args; _ } ->
          Buffer.add_string b
            (Printf.sprintf "%sspan %s%s\n" (indent ()) label
               (match args with [] -> "" | l -> " [" ^ args_to_string l ^ "]"));
          incr depth
      | Span_end { args; _ } ->
          (match args with
          | [] -> ()
          | l ->
              Buffer.add_string b
                (Printf.sprintf "%send [%s]\n" (indent ()) (args_to_string l)));
          decr depth
      | Instant { label; args; _ } ->
          Buffer.add_string b
            (Printf.sprintf "%sevent %s%s\n" (indent ()) label
               (match args with [] -> "" | l -> " [" ^ args_to_string l ^ "]"))
      | Lane _ -> ())
    (state ()).cur.events;
  List.iter
    (fun (k, v) -> Buffer.add_string b (Printf.sprintf "counter %s = %d\n" k v))
    (counters ());
  List.iter
    (fun (k, v) ->
      Buffer.add_string b (Printf.sprintf "gauge %s = %.17g\n" k v))
    (gauges ());
  Buffer.contents b

(* --- Chrome trace-event export ---------------------------------------- *)

(* A non-finite float has no JSON number; it keeps its %h spelling as a
   string rather than printing as null. *)
let arg_json : arg -> Qp_json.t = function
  | Int n -> Num (Float.of_int n)
  | Float f when Float.is_finite f -> Num f
  | Float f -> String (Printf.sprintf "%h" f)
  | Str s -> String s
  | Bool b -> Bool b

let to_chrome_lines () =
  let open Qp_json in
  let int n = Num (Float.of_int n) in
  let lines = ref [] in
  let push ph tid fields =
    let head = [ ("ph", String ph); ("pid", Num 1.0); ("tid", int tid) ] in
    lines := to_string (Obj (head @ fields)) :: !lines
  in
  let args l = ("args", Obj (List.map (fun (k, v) -> (k, arg_json v)) l)) in
  push "M" 1
    [ ("name", String "process_name");
      ("args", Obj [ ("name", String "qpricing") ]) ];
  (* The caller's events are on tid 1; each spliced lane gets the next
     tid in walk order and a thread_name record naming its parent lane,
     which is how Qp_obs_report charges a lane's spans to the span that
     spawned it. Timestamps are the real ones, in microseconds rounded
     to the nanosecond: spans of concurrent tasks overlap. *)
  let lanes = ref [ 1 ] and next_tid = ref 2 and last = ref 0.0 in
  let span_labels = Hashtbl.create 64 in
  let tid () = List.hd !lanes in
  let us ts = Num (Float.round (ts *. 1e9) /. 1e3) in
  let ts_field ts =
    last := Float.max !last ts;
    ("ts", us ts)
  in
  let on_lane = function
    | `Enter ->
        let parent = tid () in
        let t = !next_tid in
        incr next_tid;
        lanes := t :: !lanes;
        let name = String (Printf.sprintf "lane %d" t) in
        push "M" t
          [ ("name", String "thread_name");
            ("args", Obj [ ("name", name); ("parent", int parent) ]) ]
    | `Leave -> lanes := List.tl !lanes
  in
  walk ~on_lane
    (fun ev ->
      match ev with
      | Span_begin { label; args = a; ts } ->
          Hashtbl.replace span_labels label ();
          push "B" (tid ()) [ ts_field ts; ("name", String label); args a ]
      | Span_end { ts; args = a } -> push "E" (tid ()) [ ts_field ts; args a ]
      | Instant { label; args = a; ts } ->
          push "i" (tid ())
            [ ts_field ts; ("s", String "t"); ("name", String label); args a ]
      | Lane _ -> ())
    (state ()).cur.events;
  let sample name values =
    push "C" 1 [ ("ts", us !last); ("name", String name); ("args", Obj values) ]
  in
  List.iter (fun (k, v) -> sample k [ ("value", int v) ]) (counters ());
  (* Gauges share the "C" phase with counters; the "kind" arg is what
     lets Qp_obs_report tell them apart (older traces without it are
     read back as counters). *)
  List.iter
    (fun (k, v) -> sample k [ ("value", Num v); ("kind", String "gauge") ])
    (gauges ());
  (* Histograms fed only by [observe_ns] (span labels' histograms repeat
     the span records) travel as "C" samples of their count, tagged
     kind=histogram with the nanosecond summary alongside. *)
  List.iter
    (fun (k, (h : Hist.snapshot)) ->
      if h.count > 0 && not (Hashtbl.mem span_labels k) then
        let quantile q = Num (Float.round (Hist.quantile_ns h q)) in
        sample k
          [ ("value", int h.count); ("kind", String "histogram");
            ("sum_ns", int h.sum_ns); ("max_ns", int h.max_ns);
            ("p50_ns", quantile 50.0); ("p95_ns", quantile 95.0) ])
    (histograms ());
  List.rev !lines

let write_chrome_trace path =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun line -> output_string oc (line ^ "\n")) (to_chrome_lines ()))
