type env = { seed : int; seconds : float; workdir : string; traced : bool }

let path env name = Filename.concat env.workdir name
let file_bytes path = (Unix.stat path).Unix.st_size

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
  sizes : (string * Json.t) list;
  timed : int;
  replayed : string list;
}

type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let check c ok what =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    if c.failed <= 5 then prerr_endline ("perfbench: check failed: " ^ what)
  end

let guard c what f =
  match f () with
  | v -> Some v
  | exception e ->
    check c false (what ^ ": " ^ Printexc.to_string e);
    None

let finite_nonneg x = Float.is_finite x && x >= 0.0

(* q-error, floored at 1 on both sides so an estimate below one node is
   not rewarded for hitting a small true count. *)
let qerror ~est ~real =
  let e = Float.max est 1.0 and r = Float.max (float_of_int real) 1.0 in
  Float.max e r /. Float.min e r

let deadline_after seconds = Clock.now_ns () + int_of_float (seconds *. 1e9)
let before deadline = Clock.now_ns () < deadline

(* Set-up is timed in blocks: at least [min_runs] runs and [seconds]
   (at most 50 runs), each on a heap just collected, as in a fresh
   process, so the previous run's garbage is not billed to it.  The
   first block precedes measuring; [run_slices] adds a short one between
   measuring slices, about once a second, so the samples span the run.
   This host switches between fast and slow phases lasting from about a
   second to tens of seconds, and set-up runs up to half again as slow
   in the slow ones.  A median of set-ups reports the run's share of
   slow phases, which moved ten-seed sets of run medians by up to 1.5x;
   so set-up, like every operation latency, is best of N: the fastest
   set-up of the run, which samples spread over the run find. *)
type 'a setup = { f : unit -> 'a; mutable times : float list }

let setup_block s ~min_runs ~seconds =
  let t_end = deadline_after seconds in
  let rec go n =
    Gc.full_major ();
    let v, dt = Clock.time s.f in
    s.times <- dt :: s.times;
    if (n + 1 >= min_runs && not (before t_end)) || n + 1 >= 50 then v else go (n + 1)
  in
  go 0

let setup f =
  let s = { f; times = [] } in
  (setup_block s ~min_runs:5 ~seconds:0.2, s)

let setup_s s = List.fold_left Float.min infinity s.times
let repeat n f = Array.init n (fun _ -> snd (Clock.time f))

(* The measuring time is cut into slices of about a second, at least
   five, with a set-up block between each two.  A traced run alternates
   its slices between a disabled and an enabled recorder, so a drift in
   machine speed falls on both sides alike and their difference is the
   tracing overhead.  A slice that overruns shortens the next ones. *)
let run_slices env ~setup ~make ~measure =
  let untraced = make () and traced = make () in
  let off = Trace.create ~enabled:false and on = Trace.create ~enabled:true in
  let n = max 5 (int_of_float env.seconds) in
  let n = if env.traced then 2 * ((n + 1) / 2) else n in
  let remaining = ref env.seconds in
  for i = 0 to n - 1 do
    if i > 0 then ignore (setup_block setup ~min_runs:1 ~seconds:0.05);
    let seconds = Float.max 0.0 (!remaining /. float_of_int (n - i)) in
    let t0 = Clock.now_ns () in
    if env.traced && i mod 2 = 1 then measure on traced seconds else measure off untraced seconds;
    remaining := !remaining -. Clock.seconds (Clock.now_ns () - t0)
  done;
  (untraced, on, traced)

let overhead_pct ~untraced ~traced = 100.0 *. (traced -. untraced) /. untraced

(* Share of the end-to-end spans' time that the layer spans inside them
   account for. *)
let coverage tr ~op =
  let total = Stats.sum (Trace.durations tr op) in
  let self =
    Option.value ~default:0.0 (List.assoc_opt op (Trace.self_seconds tr))
  in
  (total -. self) /. total

let parse_xml path =
  match Xmlest_core.Xmlest.Xml_parser.parse_file path with
  | Ok e -> e
  | Error e ->
    failwith (Format.asprintf "%a" Xmlest_core.Xmlest.Xml_parser.pp_error e)

let ok_exn what = function
  | Ok v -> v
  | Error m -> failwith (what ^ ": " ^ m)

let end_to_end ~setup_s ~op_p50_us ~op_p90_us ~ops_per_s ~qerr_gmean ~xsum_bytes_per_xml_kb =
  [
    metric "setup_s" "s" setup_s;
    metric "op_p50_us" "us" op_p50_us;
    metric "op_p90_us" "us" op_p90_us;
    metric "ops_per_s" "1/s" ops_per_s;
    metric "qerr_gmean" "ratio" qerr_gmean;
    metric "xsum_bytes_per_xml_kb" "B/KB" xsum_bytes_per_xml_kb;
  ]
