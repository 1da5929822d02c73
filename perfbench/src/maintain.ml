open Xmlest_core
module X = Xmlest
open Common

(* Smaller than the other DBLP inputs: every update copies the document
   and a tenth of them rebuild, so a larger one would leave few passes per
   run. *)
let scale = 0.1
let update_count = 100
let estimates_per_update = 3

(* Throughput windows: consecutive stream positions, each with its
   estimates.  Ten updates take ~60 ms and hold their allocation, major
   slices and, at the positions that have one, a rebuild. *)
let window_updates = 10

(* What one measuring phase accumulates over its passes. *)
type acc = {
  apply_t : float Stats.Samples.t;  (** every [Summary.apply], seconds *)
  steps : int Stats.Samples.t;  (** stream position of each [apply_t] *)
  window_t : float array;  (** fastest time of each window of positions over the passes *)
  incremental_t : float Stats.Samples.t;  (** applies that did not rebuild *)
  mutable rebuilds : int;  (** in one pass *)
  mutable drift_max : float;
}

let acc () =
  let s () = Stats.Samples.create 0.0 in
  {
    apply_t = s (); steps = Stats.Samples.create 0;
    window_t = Array.make (update_count / window_updates) infinity;
    incremental_t = s ();
    rebuilds = 0; drift_max = 0.0;
  }

let run env =
  (* Harness: the XML file set-up parses, the update stream with the
     document it ends in, a pattern pool, exact answers on the final
     document, and a fresh build of it for the end-of-stream check. *)
  let xml = path env "maintain.xml" in
  let elem = Inputs.dblp_elem ~scale ~seed:env.seed () in
  Inputs.write_xml xml elem;
  let initial = X.Document.of_elem elem in
  let preds = Inputs.dblp_predicates () in
  let build doc = X.Summary.build ~grid_size:Inputs.dblp_grid doc preds in
  let updates, final_doc = Inputs.updates ~seed:env.seed ~count:update_count initial in
  let pool = Inputs.dblp_pool ~seed:env.seed initial in
  let pool_size = Array.length pool.Inputs.texts in
  let patterns = Array.map X.Pattern_parser.pattern_exn pool.Inputs.texts in
  let truth = Array.map (X.Twig_count.count final_doc) patterns in
  let fresh_final = X.Summary.to_string (build final_doc) in
  (* The estimates after each update ask for the paper's queries, dealt
     from a deck and continued from pass to pass: the same patterns for
     every seed, each timed hundreds of times in a run, so their best
     latencies hold still.  q-error is taken over the whole pool. *)
  let queries = Array.of_list (List.map X.Pattern_parser.pattern_exn Inputs.paper_queries) in
  let n_queries = Array.length queries in
  let per_pass = update_count * estimates_per_update in
  let picks = Inputs.deck_stream ~seed:env.seed ~pool_size:n_queries ~length:(n_queries * per_pass) in
  let passes = ref 0 in
  let c = checks () in
  (* Set-up: parse, label, initial build. *)
  let setup_tr = Trace.create ~enabled:env.traced in
  let (doc, first), setup =
    Common.setup (fun () ->
        let elem = Trace.span setup_tr "xmldb.parse" (fun () -> parse_xml xml) in
        let doc = Trace.span setup_tr "xmldb.label" (fun () -> X.Document.of_elem elem) in
        (doc, Trace.span setup_tr "core.build" (fun () -> build doc)))
  in
  let final_estimates = ref [||] in
  (* One pass over the whole stream, starting from a summary of the
     initial document. *)
  let final_summary = ref first in
  let pass tr a s =
    a.rebuilds <- 0;
    let window_start = ref 0 in
    let step k u =
      let t0 = Clock.now_ns () in
      if k mod window_updates = 0 then window_start := t0;
      let applied =
        guard c "apply" (fun () ->
            Trace.span tr "maintain.apply" (fun () -> X.Summary.apply s [ u ]))
      in
      let dt = Clock.seconds (Clock.now_ns () - t0) in
      if Option.is_some applied then check c true "apply";
      Stats.Samples.add a.apply_t dt;
      Stats.Samples.add a.steps k;
      (* A rebuild discards the maintenance state, so the staleness report
         is gone. *)
      (match X.Summary.staleness s with
       | None ->
         a.rebuilds <- a.rebuilds + 1
       | Some r ->
         Stats.Samples.add a.incremental_t dt;
         a.drift_max <- Float.max a.drift_max r.X.Staleness.drift_ratio);
      for j = 0 to estimates_per_update - 1 do
        let i = picks.(((!passes * per_pass) + (k * estimates_per_update) + j) mod Array.length picks) in
        let e =
          Trace.span tr "core.estimate" (fun () -> X.Summary.estimate s queries.(i))
        in
        let ok = finite_nonneg e in
        check c ok
          (if ok then "" else Printf.sprintf "%s: estimate %h" (List.nth Inputs.paper_queries i) e)
      done;
      if (k + 1) mod window_updates = 0 then begin
        let w = k / window_updates in
        a.window_t.(w) <- Float.min a.window_t.(w) (Clock.seconds (Clock.now_ns () - !window_start))
      end
    in
    Trace.span tr "op.stream" (fun () -> List.iteri step updates);
    incr passes;
    final_estimates := Array.map (X.Summary.estimate s) patterns;
    X.Summary.rebuild s;
    final_summary := s;
    check c
      (String.equal (X.Summary.to_string s) fresh_final)
      "rebuild after the stream differs from a fresh build of the final document"
  in
  (* Passes repeat until the slice's time is up.  The first starts from
     set-up's summary, every later one from a fresh build (harness time). *)
  let unused = ref (Some first) in
  let measure tr a seconds =
    let deadline = deadline_after seconds in
    let run_pass () =
      let s = match !unused with Some s -> s | None -> build doc in
      unused := None;
      Gc.full_major ();
      pass tr a s
    in
    run_pass ();
    while before deadline do
      run_pass ()
    done
  in
  let untraced, tr, traced = run_slices env ~setup ~make:acc ~measure in
  let arr = Stats.Samples.to_array in
  (* Best of N per stream position: each update's fastest pass.  A slow
     stretch of a shared host can cover most passes; the cost of the
     update under this stream stays. *)
  let per_step a samples = Stats.per_key_min (arr a.steps) (arr samples) in
  (* Throughput: the stream's time is the sum of each window's fastest
     pass, the estimates, allocation and GC inside a window included. *)
  let per_update a = Stats.sum a.window_t /. float_of_int update_count in
  let qerr =
    Array.to_list truth
    |> List.mapi (fun i real ->
           if real > 0 then Some (qerror ~est:!final_estimates.(i) ~real) else None)
    |> List.filter_map Fun.id |> Array.of_list
  in
  let sizes =
    [
      ("nodes", Json.Int (X.Document.size doc));
      ("nodes_final", Json.Int (X.Document.size final_doc));
      ("xml_bytes", Json.Int (file_bytes xml));
      ("predicates", Json.Int (List.length preds));
      ("grid", Json.Int Inputs.dblp_grid);
      ("updates", Json.Int update_count);
      ("dblp_scale", Json.Num scale);
      ("pattern_pool", Json.Int pool_size);
    ]
  in
  (* The summary at the end of the stream, rebuilt, written and reopened:
     the space figure and one more check. *)
  let xsum = path env "maintain-final.xsum" in
  X.Summary.save_store !final_summary xsum;
  Option.iter
    (fun m -> check c (String.equal (X.Summary.to_string m) fresh_final) "reopened final .xsum differs")
    (guard c "reopen" (fun () -> ok_exn "load_store" (X.Summary.load_store xsum)));
  let metrics, replayed =
    if not env.traced then
      let a = untraced in
      let apply = per_step a a.apply_t in
      ( end_to_end ~setup_s:(setup_s setup)
          ~op_p50_us:(1e6 *. Stats.quantile apply 0.5)
          ~op_p90_us:(1e6 *. Stats.quantile apply 0.9)
          ~ops_per_s:(1.0 /. per_update a) ~qerr_gmean:(Stats.gmean qerr)
          ~xsum_bytes_per_xml_kb:
            (float_of_int (file_bytes xsum) /. (float_of_int (file_bytes xml) /. 1024.0)),
        [] )
    else
      let a = traced in
      let med tr name = Stats.median (Trace.durations tr name) in
      Layers.metrics c
        {
          Layers.xml;
          doc;
          preds;
          predicate_set = "dblp";
          grid = Inputs.dblp_grid;
          summary = !final_summary;
          texts = pool.texts;
          qerr;
          updates;
          scratch = path env "layers.xsum";
        }
        ~own:
          [
            metric "xmldb.parse_s" "s" (med setup_tr "xmldb.parse");
            metric "xmldb.label_s" "s" (med setup_tr "xmldb.label");
            metric "core.build_s" "s" (med setup_tr "core.build");
            metric "core.estimate_us" "us" (1e6 *. med tr "core.estimate");
            metric "maintain.apply_us" "us" (1e6 *. Stats.median (arr a.incremental_t));
            metric "maintain.rebuilds" "count" (float_of_int a.rebuilds);
            metric "maintain.drift_ratio_max" "ratio" a.drift_max;
            metric "trace.layer_coverage" "ratio" (coverage tr ~op:"op.stream");
            metric "trace.overhead_pct" "%"
              (overhead_pct ~untraced:(per_update untraced) ~traced:(per_update a));
          ]
  in
  if env.traced then Trace.write tr (path env "trace-maintain.tsv");
  let timed = Array.length (arr untraced.apply_t) in
  { attempted = c.attempted; failed = c.failed; metrics; sizes; timed; replayed }
