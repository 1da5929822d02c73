(* Monotonic wall clock (CLOCK_MONOTONIC, nanoseconds).  Estimates take
   microseconds, so gettimeofday's microsecond resolution is too coarse. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, seconds (now_ns () - t0))
