open Xmlest_core
module X = Xmlest
open Common

type config = {
  name : string;
  elem : seed:int -> X.Elem.t;
  predicate_set : string;  (** {!Inputs.predicates} *)
  grid : int;
  pool : seed:int -> X.Document.t -> Inputs.pool;
  stream : seed:int -> pool_size:int -> length:int -> int array;
}

let optimizer_dblp =
  {
    name = "optimizer_dblp";
    elem = (fun ~seed -> Inputs.dblp_elem ~seed ());
    predicate_set = "dblp";
    grid = Inputs.dblp_grid;
    pool = Inputs.dblp_pool;
    stream = Inputs.zipf_stream ~s:0.6;
  }

let recursive_fine =
  {
    name = "recursive_fine";
    elem = Inputs.treebank_elem;
    predicate_set = "treebank";
    grid = Inputs.treebank_grid;
    pool = Inputs.treebank_pool;
    stream = Inputs.uniform_stream;
  }

let stream_length = 1 lsl 16

(* Throughput windows: at least 10 ms, so a window holds minor
   collections and major slices in their usual share, and at least 100
   estimates, so it holds a fair sample of the stream.  About 1,000
   estimates on optimizer_dblp, 100 (0.25 s) on recursive_fine. *)
let rate_window = 0.01
let rate_min_ops = 100

let parse tr text =
  Trace.span tr "query.parse" (fun () ->
      (ok_exn "pattern" (X.Pattern_parser.parse text)).X.Pattern_parser.root)

let run cfg env =
  (* Harness: document and its XML file, in-memory summary (the oracle),
     its .xsum, the pattern pool with exact answers, the request stream. *)
  let elem = cfg.elem ~seed:env.seed in
  let xml = path env (cfg.name ^ ".xml") in
  Inputs.write_xml xml elem;
  let doc = X.Document.of_elem elem in
  let preds = Inputs.predicates cfg.predicate_set in
  let reference = X.Summary.build ~grid_size:cfg.grid doc preds in
  let xsum = path env (cfg.name ^ ".xsum") in
  X.Summary.save_store reference xsum;
  let pool = cfg.pool ~seed:env.seed doc in
  let n = Array.length pool.Inputs.texts in
  let oracle =
    Array.map (fun t -> X.Summary.estimate reference (X.Pattern_parser.pattern_exn t)) pool.texts
  in
  let stream = cfg.stream ~seed:env.seed ~pool_size:n ~length:stream_length in
  let c = checks () in
  let check_estimate i e =
    let ok = Float.equal e oracle.(i) && finite_nonneg e in
    check c ok
      (if ok then "" else Printf.sprintf "%s: mapped %h, in-memory %h" pool.texts.(i) e oracle.(i))
  in
  (* Set-up: open the store, parse the pool, one cold pass over it. *)
  let setup_tr = Trace.create ~enabled:env.traced in
  let (summary, patterns, cold), setup =
    Common.setup (fun () ->
        let s =
          Trace.span setup_tr "core.load_store" (fun () ->
              ok_exn "load_store" (X.Summary.load_store xsum))
        in
        let patterns = Array.map (parse setup_tr) pool.texts in
        (s, patterns, Array.map (X.Summary.estimate s) patterns))
  in
  Array.iteri check_estimate cold;
  let pos = ref 0 in
  let measure tr (lat, keys, rate) seconds =
    let deadline = deadline_after seconds in
    Stats.Rate.start rate (Clock.now_ns ());
    Trace.span tr "op.loop" (fun () ->
        while before deadline do
          let i = stream.(!pos land (stream_length - 1)) in
          let t0 = Clock.now_ns () in
          let e =
            Trace.span tr "core.estimate" (fun () -> X.Summary.estimate summary patterns.(i))
          in
          Stats.Samples.add lat (Clock.seconds (Clock.now_ns () - t0));
          Stats.Samples.add keys i;
          check_estimate i e;
          incr pos;
          Stats.Rate.tick rate (Clock.now_ns ())
        done)
  in
  let untraced, tr, traced =
    run_slices env ~setup
      ~make:(fun () ->
        ( Stats.Samples.create 0.0,
          Stats.Samples.create 0,
          Stats.Rate.create ~window:rate_window ~min_ops:rate_min_ops ))
      ~measure
  in
  (* Best of N per pattern: each estimate's latency is replaced by the
     fastest call of its pattern in the run.  On a shared host a slow
     stretch can last the whole run; the fastest call of a pattern that
     ran thousands of times does not move with it.  Percentiles then rank
     the patterns the stream asks for. *)
  let latencies (lat, keys, _) =
    Stats.per_key_min (Stats.Samples.to_array keys) (Stats.Samples.to_array lat)
  in
  let per_s (_, _, rate) = Stats.Rate.best rate in
  let qerr = Array.mapi (fun i e -> qerror ~est:e ~real:pool.truth.(i)) cold in
  let sizes =
    [
      ("nodes", Json.Int (X.Document.size doc));
      ("predicates", Json.Int (List.length preds));
      ("grid", Json.Int cfg.grid);
      ("xml_bytes", Json.Int (file_bytes xml));
      ("xsum_bytes", Json.Int (file_bytes xsum));
      ("pattern_pool", Json.Int n);
    ]
  in
  let metrics, replayed =
    if not env.traced then
      let lat = latencies untraced in
      ( end_to_end ~setup_s:(setup_s setup)
          ~op_p50_us:(1e6 *. Stats.quantile lat 0.5)
          ~op_p90_us:(1e6 *. Stats.quantile lat 0.9)
          ~ops_per_s:(per_s untraced) ~qerr_gmean:(Stats.gmean qerr)
          ~xsum_bytes_per_xml_kb:
            (float_of_int (file_bytes xsum) /. (float_of_int (file_bytes xml) /. 1024.0)),
        [] )
    else
      let med tr name = Stats.median (Trace.durations tr name) in
      Layers.metrics c
        {
          Layers.xml;
          doc;
          preds;
          predicate_set = cfg.predicate_set;
          grid = cfg.grid;
          summary;
          texts = pool.texts;
          qerr;
          updates = fst (Inputs.updates ~seed:env.seed ~count:Inputs.replay_updates doc);
          scratch = path env "layers.xsum";
        }
        ~own:
          [
            metric "query.parse_us" "us" (1e6 *. med setup_tr "query.parse");
            metric "core.load_store_us" "us" (1e6 *. med setup_tr "core.load_store");
            metric "core.estimate_us" "us" (1e6 *. med tr "core.estimate");
            metric "trace.layer_coverage" "ratio" (coverage tr ~op:"op.loop");
            metric "trace.overhead_pct" "%"
              (overhead_pct
                 ~untraced:(Stats.mean (latencies untraced))
                 ~traced:(Stats.mean (latencies traced)));
          ]
  in
  if env.traced then Trace.write tr (path env ("trace-" ^ cfg.name ^ ".tsv"));
  let timed = let lat, _, _ = untraced in Array.length (Stats.Samples.to_array lat) in
  { attempted = c.attempted; failed = c.failed; metrics; sizes; timed; replayed }
