let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let time f =
  let t0 = now_s () in
  let result = f () in
  (result, now_s () -. t0)

let time_runs ?(warmup = 1) ~runs f =
  assert (runs > 0);
  for _ = 1 to warmup do
    ignore (f ())
  done;
  let total = ref 0.0 in
  for _ = 1 to runs do
    let _, dt = time f in
    total := !total +. dt
  done;
  !total /. Float.of_int runs
