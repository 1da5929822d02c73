open Xmlest_core
module X = Xmlest
open Common

type path = Memory | Stream

(* The CLI's in-memory build: tree parse, interval labelling, fused build
   at the default single domain, .xsum write. *)
let in_memory tr ~xml ~out preds =
  let elem = Trace.span tr "xmldb.parse" (fun () -> parse_xml xml) in
  let doc = Trace.span tr "xmldb.label" (fun () -> X.Document.of_elem elem) in
  let s =
    Trace.span tr "core.build" (fun () ->
        X.Summary.build ~grid_size:Inputs.dblp_grid doc preds)
  in
  Trace.span tr "core.save_store" (fun () -> X.Summary.save_store s out);
  s

(* The out-of-core build: SAX pass and spill, then the histogram sweep,
   .xsum write. *)
let streamed tr ~xml ~out preds =
  let s =
    Trace.span tr "core.build_stream" (fun () ->
        X.Summary.build_stream_file ~grid_size:Inputs.dblp_grid xml preds)
  in
  Trace.span tr "core.save_store" (fun () -> X.Summary.save_store s out);
  s

let ingest path = match path with Memory -> in_memory | Stream -> streamed

(* One corpus file and what the harness knows about it. *)
type file = {
  xml : string;
  out : string;
  xml_bytes : int;
  doc : X.Document.t;
  expected : string;  (** [Summary.to_string] of the other path's build *)
  reference : X.Summary.t;
}

let run path env =
  let name = match path with Memory -> "ingest" | Stream -> "ingest_stream" in
  let preds = Inputs.dblp_predicates () in
  (* Harness: the corpus, each file's summary through the other path (the
     oracle), and the paper queries' exact answers. *)
  let files =
    List.mapi
      (fun k _ ->
        let elem = Inputs.ingest_elem ~seed:env.seed k in
        let xml = Common.path env (Printf.sprintf "%s-%d.xml" name k) in
        Inputs.write_xml xml elem;
        let doc = X.Document.of_elem elem in
        let reference =
          match path with
          | Memory -> X.Summary.build_stream_file ~grid_size:Inputs.dblp_grid xml preds
          | Stream -> X.Summary.build ~grid_size:Inputs.dblp_grid doc preds
        in
        {
          xml;
          out = Common.path env (Printf.sprintf "%s-%d.xsum" name k);
          xml_bytes = file_bytes xml;
          doc;
          expected = X.Summary.to_string reference;
          reference;
        })
      Inputs.ingest_scales
    |> Array.of_list
  in
  let n_files = Array.length files in
  let queries = Array.of_list Inputs.paper_queries in
  let qerr =
    Array.to_list files
    |> List.concat_map (fun f ->
           Array.to_list queries
           |> List.filter_map (fun text ->
                  let p = X.Pattern_parser.pattern_exn text in
                  let real = X.Twig_count.count f.doc p in
                  if real > 0 then Some (qerror ~est:(X.Summary.estimate f.reference p) ~real)
                  else None))
    |> Array.of_list
  in
  let c = checks () in
  let op tr f = ingest path tr ~xml:f.xml ~out:f.out preds in
  (* Set-up: one ingest of the smallest file. *)
  let setup_tr = Trace.create ~enabled:false in
  let _, setup = Common.setup (fun () -> op setup_tr files.(0)) in
  let next = ref 0 in
  let step tr (lat, keys) =
    let k = !next mod n_files in
    let f = files.(k) in
    incr next;
    Gc.full_major ();
    match
      guard c "ingest" (fun () ->
          Clock.time (fun () -> Trace.span tr "op.ingest" (fun () -> op tr f)))
    with
    | None -> ()
    | Some (s, dt) ->
      Stats.Samples.add lat dt;
      Stats.Samples.add keys k;
      check c (String.equal (X.Summary.to_string s) f.expected) (f.xml ^ ": summary differs from the other path's");
      Option.iter
        (fun m -> check c (String.equal (X.Summary.to_string m) f.expected) (f.out ^ ": reopened .xsum differs"))
        (guard c "reopen" (fun () ->
             Trace.span tr "core.load_store" (fun () -> ok_exn "load_store" (X.Summary.load_store f.out))))
  in
  let untraced, tr, traced =
    run_slices env ~setup
      ~make:(fun () -> (Stats.Samples.create 0.0, Stats.Samples.create 0))
      ~measure:(fun tr acc seconds ->
        let deadline = deadline_after seconds in
        step tr acc;
        while before deadline do
          step tr acc
        done)
  in
  (* Best of N per file: a slow stretch of a shared host can last the
     whole run and moves a median with it.  Each file weighs the same, so
     the median is the middle file's time and p90 lies between the two
     largest files'.  A file a short run never reached is left out. *)
  let best_of (lat, keys) =
    let b = Array.make n_files infinity and lat = Stats.Samples.to_array lat in
    Array.iteri (fun i k -> b.(k) <- Float.min b.(k) lat.(i)) (Stats.Samples.to_array keys);
    b
  in
  let best acc = Array.of_list (List.filter Float.is_finite (Array.to_list (best_of acc))) in
  (* Tracing overhead over the files both sides reached. *)
  let both =
    let u = best_of untraced and t = best_of traced in
    List.filter (fun k -> Float.is_finite u.(k) && Float.is_finite t.(k)) (List.init n_files Fun.id)
    |> List.fold_left (fun (su, st) k -> (su +. u.(k), st +. t.(k))) (0.0, 0.0)
  in
  let total_bytes = Array.fold_left (fun acc f -> acc + f.xml_bytes) 0 files in
  let sizes =
    [
      ("files", Json.Int n_files);
      ("nodes", Json.Int (Array.fold_left (fun acc f -> acc + X.Document.size f.doc) 0 files));
      ("xml_bytes", Json.Int total_bytes);
      ("predicates", Json.Int (List.length preds));
      ("grid", Json.Int Inputs.dblp_grid);
      ("dblp_scales", Json.Arr (List.map (fun s -> Json.Num s) Inputs.ingest_scales));
      ("queries", Json.Int (Array.length queries));
    ]
  in
  let metrics, replayed =
    if not env.traced then
      let b = best untraced in
      let xsum = Array.fold_left (fun acc f -> acc + file_bytes f.out) 0 files in
      ( end_to_end ~setup_s:(setup_s setup)
          ~op_p50_us:(1e6 *. Stats.quantile b 0.5)
          ~op_p90_us:(1e6 *. Stats.quantile b 0.9)
          ~ops_per_s:(float_of_int (Array.length b) /. Stats.sum b)
          ~qerr_gmean:(Stats.gmean qerr)
          ~xsum_bytes_per_xml_kb:(float_of_int xsum /. (float_of_int total_bytes /. 1024.0)),
        [] )
    else
      (* Layer spans cover every file; their medians are about the middle
         file's, which the replays use too. *)
      let mid = files.(n_files / 2) in
      let med name = Stats.median (Trace.durations tr name) in
      let own =
        (match path with
         | Memory ->
           [
             metric "xmldb.parse_s" "s" (med "xmldb.parse");
             metric "xmldb.label_s" "s" (med "xmldb.label");
             metric "core.build_s" "s" (med "core.build");
           ]
         | Stream -> [ metric "core.build_stream_s" "s" (med "core.build_stream") ])
        @ [
          metric "core.save_store_s" "s" (med "core.save_store");
          metric "core.load_store_us" "us" (1e6 *. med "core.load_store");
          metric "trace.layer_coverage" "ratio" (coverage tr ~op:"op.ingest");
          metric "trace.overhead_pct" "%"
            (overhead_pct ~untraced:(fst both) ~traced:(snd both));
        ]
      in
      Layers.metrics c
        {
          Layers.xml = mid.xml;
          doc = mid.doc;
          preds;
          predicate_set = "dblp";
          grid = Inputs.dblp_grid;
          summary = mid.reference;
          texts = queries;
          qerr;
          updates = fst (Inputs.updates ~seed:env.seed ~count:Inputs.replay_updates mid.doc);
          scratch = Common.path env "layers.xsum";
        }
        ~own
  in
  if env.traced then Trace.write tr (Common.path env ("trace-" ^ name ^ ".tsv"));
  let timed = Array.length (Stats.Samples.to_array (fst untraced)) in
  { attempted = c.attempted; failed = c.failed; metrics; sizes; timed; replayed }
