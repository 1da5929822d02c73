open Xmlest_core
module X = Xmlest
open Common

type subject = {
  xml : string;
  doc : X.Document.t;
  preds : X.Predicate.t list;
  predicate_set : string;
  grid : int;
  summary : X.Summary.t;
  texts : string array;
  qerr : float array;
  updates : X.Update.t list;
  scratch : string;
}

type source =
  | Replay of (unit -> float)  (** a layer call timed again on the same inputs *)
  | Derived of (unit -> float)  (** a size or count, not a timing *)
  | Own  (** only the workload can measure it *)

let median_of n f = Stats.median (repeat n f)

(* The median over items of each item's fastest call. *)
let median_best reps items f =
  Stats.median (Array.map (fun x -> Array.fold_left Float.min infinity (repeat reps (fun () -> f x))) items)

let equal_summaries a b = String.equal (X.Summary.to_string a) (X.Summary.to_string b)

(* Every (ancestor, descendant) catalog pair that the patterns' edges
   join. *)
let edge_pairs patterns =
  let pairs = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      X.Pattern.fold
        (fun () node ->
          List.iter
            (fun (_, child) ->
              let a = node.X.Pattern.pred and d = child.X.Pattern.pred in
              Hashtbl.replace pairs (X.Predicate.name a, X.Predicate.name d) (a, d))
            node.X.Pattern.edges)
        () p)
    patterns;
  Hashtbl.fold (fun _ pair acc -> pair :: acc) pairs []

let probe_stream_heap = function
  | [ xml; set; grid ] ->
    let s = X.Summary.build_stream_file ~grid_size:(int_of_string grid) xml (Inputs.predicates set) in
    ignore (Sys.opaque_identity s);
    Printf.printf "%d\n" (Gc.quick_stat ()).Gc.top_heap_words
  | _ -> invalid_arg "Layers.probe_stream_heap"

let stream_peak_heap_mb s =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w)
      (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "--probe-stream-heap"; s.xml; s.predicate_set; string_of_int s.grid |]
          Unix.stdin w Unix.stderr)
  in
  let line =
    Fun.protect
      ~finally:(fun () -> Unix.close r)
      (fun () -> In_channel.input_line (Unix.in_channel_of_descr r))
  in
  match (Unix.waitpid [] pid, line) with
  | (_, Unix.WEXITED 0), Some l ->
    float_of_string (String.trim l) *. float_of_int (Sys.word_size / 8) /. 1e6
  | _ -> failwith "stream heap probe failed"

let table c s =
  let build ?(domains = 1) () = X.Summary.build ~domains ~grid_size:s.grid s.doc s.preds in
  let built = lazy (build ()) in
  let patterns = lazy (Array.map X.Pattern_parser.pattern_exn s.texts) in
  let stats f = Derived (fun () -> float_of_int (f (Option.get (X.Summary.stats (Lazy.force built))))) in
  let save () = X.Summary.save_store s.summary s.scratch in
  let saved = lazy (save ()) in
  let steps =
    lazy (Array.map (fun p -> snd (X.Summary.explain s.summary p)) (Lazy.force patterns))
  in
  let count_steps meth =
    Array.fold_left
      (fun acc st ->
        acc + List.length (List.filter (fun x -> String.equal x.X.Twig_estimator.method_used meth) st))
      0 (Lazy.force steps)
  in
  let all_steps () = Array.fold_left (fun acc st -> acc + List.length st) 0 (Lazy.force steps) in
  (* The kernel call a twig estimate makes on a catalog hit (the
     descendant's coefficients memoized, so computed outside the timing),
     and the uncached call; per call, median over the pairs. *)
  let ph_join =
    lazy
      (let per_call f =
         let reps = 20 in
         let (), dt =
           Clock.time (fun () ->
               for _ = 1 to reps do
                 ignore (Sys.opaque_identity (f ()))
               done)
         in
         dt /. float_of_int reps
       in
       let warm, cold =
         List.fold_left
           (fun (warm, cold) (a, d) ->
             let anc = X.Summary.histogram s.summary a and desc = X.Summary.histogram s.summary d in
             let coefs = X.Ph_join.descendant_coefficients desc in
             ( per_call (fun () -> X.Ph_join.estimate_cells_with ~coefs ~anc ~desc ()) :: warm,
               per_call (fun () -> X.Ph_join.estimate ~anc ~desc ()) :: cold ))
           ([], [])
           (edge_pairs (Lazy.force patterns))
       in
       (Stats.median (Array.of_list warm), Stats.median (Array.of_list cold)))
  in
  (* The update stream applied one update at a time to a fresh in-memory
     summary under the default policy; a rebuild shows as the staleness
     report resetting. *)
  let applied =
    lazy
      (let sm = build () in
       let incremental = Stats.Samples.create 0.0 and rebuilds = ref 0 and drift = ref 0.0 in
       List.iter
         (fun u ->
           match guard c "replayed apply" (fun () -> Clock.time (fun () -> X.Summary.apply sm [ u ])) with
           | None -> ()
           | Some ((), dt) -> (
             check c true "replayed apply";
             match X.Summary.staleness sm with
             | None -> incr rebuilds
             | Some r ->
               Stats.Samples.add incremental dt;
               drift := Float.max !drift r.X.Staleness.drift_ratio))
         s.updates;
       (Stats.median (Stats.Samples.to_array incremental), !rebuilds, !drift))
  in
  let build_d d =
    lazy
      (let r = build ~domains:d () in
       check c (equal_summaries (Lazy.force built) r) (Printf.sprintf "%d-domain build differs" d);
       median_of 3 (fun () -> build ~domains:d ()))
  in
  let d1 = build_d 1 and d2 = build_d 2 in
  let drain () =
    In_channel.with_open_bin s.xml (fun ic ->
        let p = X.Sax.of_channel ic in
        let rec go () = match X.Sax.next p with None -> () | Some _ -> go () in
        go ())
  in
  [
    ("xmldb.nodes", Derived (fun () -> float_of_int (X.Document.size s.doc)));
    ("xmldb.parse_s", Replay (fun () -> median_of 3 (fun () -> parse_xml s.xml)));
    ( "xmldb.label_s",
      Replay
        (fun () ->
          let e = parse_xml s.xml in
          median_of 3 (fun () -> X.Document.of_elem e)) );
    ("xmldb.sax_drain_s", Replay (fun () -> median_of 3 drain));
    ( "xmldb.doc_edit_us",
      Replay
        (fun () ->
          let cur = ref s.doc in
          let times =
            List.map
              (fun u ->
                let d, dt = Clock.time (fun () -> X.Update.apply_doc !cur u) in
                cur := d;
                dt)
              s.updates
          in
          1e6 *. Stats.median (Array.of_list times)) );
    ( "query.parse_us",
      Replay (fun () -> 1e6 *. median_best 3 s.texts (fun t -> X.Pattern_parser.parse t)) );
    ( "histogram.position_build_ms",
      Replay
        (fun () ->
          let grid = X.Summary.grid (Lazy.force built) in
          1e3
          *. median_best 1 (Array.of_list s.preds) (fun p ->
                 X.Position_histogram.build s.doc ~grid p)) );
    ("core.build_s", Replay (fun () -> Lazy.force d1));
    ("core.build_passes", stats (fun st -> st.X.Summary.passes));
    ("core.predicate_evals", stats (fun st -> st.X.Summary.predicate_evals));
    ( "core.build_stream_s",
      Replay
        (fun () ->
          median_of 2 (fun () -> X.Summary.build_stream_file ~grid_size:s.grid s.xml s.preds)) );
    ("core.stream_peak_heap_mb", Replay (fun () -> stream_peak_heap_mb s));
    ("core.save_store_s", Replay (fun () -> median_of 3 save));
    ( "core.load_store_us",
      Replay
        (fun () ->
          Lazy.force saved;
          1e6 *. median_of 5 (fun () -> ok_exn "load_store" (X.Summary.load_store s.scratch))) );
    ( "core.xsum_bytes",
      Derived
        (fun () ->
          Lazy.force saved;
          float_of_int (file_bytes s.scratch)) );
    ("core.storage_bytes", Derived (fun () -> float_of_int (X.Summary.storage_bytes s.summary)));
    ( "core.estimate_us",
      Replay
        (fun () -> 1e6 *. median_best 5 (Lazy.force patterns) (X.Summary.estimate s.summary)) );
    ("estimate.ph_join_us", Replay (fun () -> 1e6 *. fst (Lazy.force ph_join)));
    ("estimate.ph_join_cold_us", Replay (fun () -> 1e6 *. snd (Lazy.force ph_join)));
    ( "estimate.joins_per_est",
      Replay (fun () -> float_of_int (all_steps ()) /. float_of_int (Array.length s.texts)) );
    ( "estimate.coverage_share",
      Replay (fun () -> float_of_int (count_steps "coverage") /. float_of_int (max 1 (all_steps ()))) );
    ("estimate.qerr_p90", Derived (fun () -> Stats.quantile s.qerr 0.9));
    ( "maintain.apply_us",
      Replay
        (fun () ->
          let t, _, _ = Lazy.force applied in
          1e6 *. t) );
    ( "maintain.rebuilds",
      Replay
        (fun () ->
          let _, n, _ = Lazy.force applied in
          float_of_int n) );
    ( "maintain.drift_ratio_max",
      Replay
        (fun () ->
          let _, _, d = Lazy.force applied in
          d) );
    ("parallel.build_d2_s", Replay (fun () -> Lazy.force d2));
    ("parallel.build_speedup_d2", Replay (fun () -> Lazy.force d1 /. Lazy.force d2));
    ( "parallel.batch_speedup_d2",
      Replay
        (fun () ->
          (* The patterns repeated to a batch of about 50 ms on 1 domain. *)
          let ps = Array.to_list (Lazy.force patterns) in
          let expected, once = Clock.time (fun () -> List.map (X.Summary.estimate s.summary) ps) in
          let copies = max 1 (int_of_float (0.05 /. once)) in
          let batch = List.concat (List.init copies (fun _ -> ps)) in
          let run d () = X.Summary.estimate_batch ~domains:d s.summary batch in
          check c
            (List.equal Float.equal (List.concat (List.init copies (fun _ -> expected))) (run 2 ()))
            "estimate_batch at 2 domains differs";
          median_of 5 (run 1) /. median_of 5 (run 2)) );
    ("trace.layer_coverage", Own);
    ("trace.overhead_pct", Own);
  ]

let specs =
  [
    ("xmldb.nodes", "count"); ("xmldb.parse_s", "s"); ("xmldb.label_s", "s");
    ("xmldb.sax_drain_s", "s"); ("xmldb.doc_edit_us", "us"); ("query.parse_us", "us");
    ("histogram.position_build_ms", "ms"); ("core.build_s", "s"); ("core.build_passes", "count");
    ("core.predicate_evals", "count"); ("core.build_stream_s", "s"); ("core.stream_peak_heap_mb", "MB");
    ("core.save_store_s", "s");
    ("core.load_store_us", "us"); ("core.xsum_bytes", "bytes"); ("core.storage_bytes", "bytes");
    ("core.estimate_us", "us"); ("estimate.ph_join_us", "us"); ("estimate.ph_join_cold_us", "us");
    ("estimate.joins_per_est", "count"); ("estimate.coverage_share", "ratio");
    ("estimate.qerr_p90", "ratio"); ("maintain.apply_us", "us"); ("maintain.rebuilds", "count");
    ("maintain.drift_ratio_max", "ratio"); ("parallel.build_d2_s", "s");
    ("parallel.build_speedup_d2", "x"); ("parallel.batch_speedup_d2", "x");
    ("trace.layer_coverage", "ratio"); ("trace.overhead_pct", "%");
  ]

let names = List.map fst specs

let metrics c s ~own =
  let sources = table c s in
  let rows =
    List.map
      (fun (name, unit_) ->
        match (List.find_opt (fun m -> String.equal m.name name) own, List.assoc name sources) with
        | Some m, _ -> (m, false)
        | None, Replay f -> (metric name unit_ (f ()), true)
        | None, Derived f -> (metric name unit_ (f ()), false)
        | None, Own -> invalid_arg ("Layers.metrics: the workload must measure " ^ name))
      specs
  in
  (List.map fst rows, List.filter_map (fun (m, r) -> if r then Some m.name else None) rows)
