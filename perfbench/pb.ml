(* Shared plumbing of the benchmark: the monotonic clock, order
   statistics, the metric sink, the environment guard, process helpers
   and the one-line JSON result. *)

(* --- clock ------------------------------------------------------------- *)

(* Every interval the benchmark reports is taken on bechamel's monotonic
   clock (nanoseconds), never on the wall clock. *)
let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9
let since t0 = seconds_between t0 (now_ns ())

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since t0)

(* --- order statistics --------------------------------------------------- *)

(* Median with the midpoint rule for even counts. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile [p] in [0, 100] of an unsorted array. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. Float.of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* --- metric sink -------------------------------------------------------- *)

let metrics : (string * (float * string)) list ref = ref []
let metric name unit_ value = metrics := (name, (value, unit_)) :: !metrics

(* --- outcome ------------------------------------------------------------ *)

(* Operations attempted/failed (one algorithm run on a cell, one request
   on the serving workload) and the correctness verdict: one failed
   check makes the run report [correct: false] and exit 1. *)
let attempted = ref 0
let failed = ref 0
let check_failures = ref 0

let reset () =
  metrics := [];
  attempted := 0;
  failed := 0;
  check_failures := 0

let op ok =
  incr attempted;
  if not ok then incr failed

(* The first 20 failed checks are printed; all are counted. *)
let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr check_failures;
        if !check_failures <= 20 then Printf.printf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "perfbench: %s\n%!" msg;
      exit 2)
    fmt

let json_number v = Printf.sprintf "%.17g" v

(* The last stdout line: {correct, attempted, failed, metrics} with the
   metrics in [names] order. A missing or non-finite metric is a bench
   defect and exits non-zero instead of printing a result. *)
let print_result names =
  let fields =
    List.map
      (fun name ->
        match List.assoc_opt name !metrics with
        | Some (v, u) when Float.is_finite v ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number v) u
        | Some (v, _) -> die "metric %s is not finite (%g)" name v
        | None -> die "metric %s was not measured" name)
      names
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!check_failures = 0) !attempted !failed
    (String.concat ", " fields)

(* --- environment guard -------------------------------------------------- *)

let guarded_vars =
  [ "QP_FAULTS"; "QP_LP_ENGINE"; "QP_REL_ENGINE"; "QP_LP_WARMSTART";
    "QP_BENCH_PROFILE"; "QP_JOBS" ]

(* Print every variable that steers the measured program, then refuse
   to measure a program they change: armed faults, a non-default LP or
   relational engine (the dense and row engines are oracles, [check]
   runs both), warm starts off, or the Full profile. QP_JOBS is
   recorded and then overridden per workload. *)
let guard_env () =
  List.iter
    (fun v ->
      Printf.printf "env %s=%s\n" v
        (Option.value (Sys.getenv_opt v) ~default:"<unset>"))
    guarded_vars;
  let refuse why = die "refusing to measure: %s" why in
  if Qp_fault.enabled () then refuse "QP_FAULTS arms fault injection";
  if Qp_lp.Simplex.default_engine () <> Qp_lp.Simplex.Revised then
    refuse "QP_LP_ENGINE selects a non-default LP engine";
  if Qp_relational.Delta_eval.default_engine () <> Qp_relational.Delta_eval.Columnar
  then refuse "QP_REL_ENGINE selects a non-default relational engine";
  if not (Qp_lp.Simplex.warm_starts ()) then
    refuse "QP_LP_WARMSTART turns warm starts off";
  if Qp_experiments.Runner.profile_of_env () <> Qp_experiments.Runner.Quick then
    refuse "QP_BENCH_PROFILE selects the Full profile"

let set_jobs n = Unix.putenv "QP_JOBS" (string_of_int n)

(* --- processes and files ------------------------------------------------ *)

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> Float.nan
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> Float.of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ()

(* Scratch files (sockets, snapshots, traces) live in one directory of
   the checkout, named after this process, and are removed on exit —
   whatever the exit path. *)
let work_dir = ".perfbench-work"
let prefix = Printf.sprintf "%d-" (Unix.getpid ())

let work_file name =
  if not (Sys.file_exists work_dir) then Unix.mkdir work_dir 0o755;
  Filename.concat work_dir (prefix ^ name)

let remove_quietly f = try Sys.remove f with Sys_error _ -> ()

let () =
  at_exit (fun () ->
      if Sys.file_exists work_dir then begin
        Array.iter
          (fun f ->
            if String.starts_with ~prefix f then
              remove_quietly (Filename.concat work_dir f))
          (Sys.readdir work_dir);
        try Unix.rmdir work_dir with Unix.Unix_error _ -> ()
      end)

let file_size f = try Float.of_int (Unix.stat f).Unix.st_size with Unix.Unix_error _ -> Float.nan
