(* Input generation is the benchmark's contract with the library: same
   seed, same bytes; another seed, other inputs; every pattern answerable
   from a summary alone and with a true answer, so q-error is defined. *)

open Xmlest_core
module X = Xmlest
open Perfbench

let xml_bytes elem =
  let path = Filename.temp_file "perfbench" ".xml" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Inputs.write_xml path elem;
      In_channel.with_open_bin path In_channel.input_all)

(* The maintain workload's document size: the smallest DBLP input, so
   the exact counts behind each pool stay cheap. *)
let dblp_doc seed = X.Document.of_elem (Inputs.dblp_elem ~scale:Maintain.scale ~seed ())
let treebank_doc seed = X.Document.of_elem (Inputs.treebank_elem ~seed)

let update_lines seed doc =
  List.map X.Update.to_line (fst (Inputs.updates ~seed ~count:Maintain.update_count doc))

(* Pools are the slow inputs (an exact count per candidate): seed 7's are
   generated twice, seed 8's once, and shared across the tests. *)
let dblp7 = lazy (dblp_doc 7)
let tb7 = lazy (treebank_doc 7)
let dblp_pool7 = lazy (Inputs.dblp_pool ~seed:7 (Lazy.force dblp7))
let tb_pool7 = lazy (Inputs.treebank_pool ~seed:7 (Lazy.force tb7))
let texts p = Array.to_list p.Inputs.texts
let strings = Alcotest.(list string)

let test_same_seed () =
  Alcotest.(check string) "dblp xml" (xml_bytes (Inputs.dblp_elem ~seed:7 ())) (xml_bytes (Inputs.dblp_elem ~seed:7 ()));
  Alcotest.(check string) "ingest file" (xml_bytes (Inputs.ingest_elem ~seed:7 1)) (xml_bytes (Inputs.ingest_elem ~seed:7 1));
  Alcotest.(check string)
    "treebank xml"
    (xml_bytes (Inputs.treebank_elem ~seed:7))
    (xml_bytes (Inputs.treebank_elem ~seed:7));
  let p1 = Lazy.force dblp_pool7 and p2 = Inputs.dblp_pool ~seed:7 (dblp_doc 7) in
  Alcotest.(check strings) "dblp pool" (texts p1) (texts p2);
  Alcotest.(check (array int)) "dblp truth" p1.truth p2.truth;
  Alcotest.(check strings)
    "treebank pool"
    (texts (Lazy.force tb_pool7))
    (texts (Inputs.treebank_pool ~seed:7 (treebank_doc 7)));
  Alcotest.(check strings) "updates" (update_lines 7 (Lazy.force dblp7)) (update_lines 7 (dblp_doc 7));
  Alcotest.(check (array int))
    "deck stream"
    (Inputs.deck_stream ~seed:7 ~pool_size:300 ~length:4096)
    (Inputs.deck_stream ~seed:7 ~pool_size:300 ~length:4096);
  Alcotest.(check (array int))
    "zipf stream"
    (Inputs.zipf_stream ~seed:7 ~s:0.6 ~pool_size:300 ~length:4096)
    (Inputs.zipf_stream ~seed:7 ~s:0.6 ~pool_size:300 ~length:4096)

let test_other_seed () =
  let differ what a b = Alcotest.(check bool) what false (String.equal a b) in
  let cat l = String.concat "\n" l in
  differ "dblp xml" (xml_bytes (Inputs.dblp_elem ~seed:7 ())) (xml_bytes (Inputs.dblp_elem ~seed:8 ()));
  differ "ingest file" (xml_bytes (Inputs.ingest_elem ~seed:7 1)) (xml_bytes (Inputs.ingest_elem ~seed:8 1));
  differ "treebank xml" (xml_bytes (Inputs.treebank_elem ~seed:7)) (xml_bytes (Inputs.treebank_elem ~seed:8));
  let d8 = dblp_doc 8 in
  differ "dblp pool" (cat (texts (Lazy.force dblp_pool7))) (cat (texts (Inputs.dblp_pool ~seed:8 d8)));
  differ "treebank pool order"
    (cat (texts (Lazy.force tb_pool7)))
    (cat (texts (Inputs.treebank_pool ~seed:8 (treebank_doc 8))));
  differ "updates" (cat (update_lines 7 (Lazy.force dblp7))) (cat (update_lines 8 d8));
  let ints a = String.concat "," (List.map string_of_int (Array.to_list a)) in
  differ "uniform stream"
    (ints (Inputs.uniform_stream ~seed:7 ~pool_size:100 ~length:4096))
    (ints (Inputs.uniform_stream ~seed:8 ~pool_size:100 ~length:4096));
  differ "deck stream"
    (ints (Inputs.deck_stream ~seed:7 ~pool_size:100 ~length:4096))
    (ints (Inputs.deck_stream ~seed:8 ~pool_size:100 ~length:4096));
  differ "zipf stream"
    (ints (Inputs.zipf_stream ~seed:7 ~s:0.6 ~pool_size:100 ~length:4096))
    (ints (Inputs.zipf_stream ~seed:8 ~s:0.6 ~pool_size:100 ~length:4096))

(* Each pattern: only catalog predicates, 2-4 nodes, a positive true
   answer, and a summary reopened from its store — which has no document
   to build a missing histogram from — estimates it exactly like the
   in-memory summary. *)
let check_pool ~grid doc preds (pool : Inputs.pool) =
  let names = List.map X.Predicate.name preds in
  let summary = X.Summary.build ~grid_size:grid doc preds in
  let path = Filename.temp_file "perfbench" ".xsum" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      X.Summary.save_store summary path;
      let mapped = Result.get_ok (X.Summary.load_store path) in
      Array.iteri
        (fun i text ->
          let p = X.Pattern_parser.pattern_exn text in
          List.iter
            (fun q ->
              Alcotest.(check bool)
                (text ^ ": catalog predicate " ^ X.Predicate.name q)
                true
                (List.mem (X.Predicate.name q) names))
            (X.Pattern.predicates p);
          let size = X.Pattern.size p in
          Alcotest.(check bool) (text ^ ": 2-4 nodes") true (size >= 2 && size <= 4);
          Alcotest.(check bool) (text ^ ": answer > 0") true (pool.truth.(i) > 0);
          Alcotest.(check (float 0.0))
            (text ^ ": mapped estimate")
            (X.Summary.estimate summary p) (X.Summary.estimate mapped p))
        pool.texts)

let test_dblp_pool () =
  let doc = Lazy.force dblp7 in
  let head =
    List.filter
      (fun t -> X.Twig_count.count doc (X.Pattern_parser.pattern_exn t) > 0)
      Inputs.paper_queries
  in
  let texts = texts (Lazy.force dblp_pool7) in
  Alcotest.(check strings) "paper queries head the pool" head (List.filteri (fun i _ -> i < List.length head) texts);
  Alcotest.(check int) "pool size" (List.length head + 450) (List.length texts);
  Alcotest.(check int)
    "recorded truth is the exact count"
    (X.Twig_count.count doc (X.Pattern_parser.pattern_exn (Lazy.force dblp_pool7).texts.(0)))
    (Lazy.force dblp_pool7).truth.(0);
  check_pool ~grid:Inputs.dblp_grid doc (Inputs.dblp_predicates ()) (Lazy.force dblp_pool7)

let test_treebank_pool () =
  check_pool ~grid:Inputs.treebank_grid (Lazy.force tb7) (Inputs.treebank_predicates ())
    (Lazy.force tb_pool7)

let test_dblp_predicates () =
  Alcotest.(check int) "52 predicates" 52 (List.length (Inputs.dblp_predicates ()))

let test_self_time () =
  let tr = Trace.create ~enabled:true in
  let busy () =
    let t0 = Clock.now_ns () in
    while Clock.now_ns () - t0 < 2_000_000 do () done
  in
  Trace.span tr "outer" (fun () ->
      busy ();
      Trace.span tr "inner" busy;
      Trace.span tr "inner" busy);
  let self = Trace.self_seconds tr in
  let outer = List.assoc "outer" self and inner = List.assoc "inner" self in
  let total = Stats.sum (Trace.durations tr "outer") in
  Alcotest.(check int) "two inner spans" 2 (Array.length (Trace.durations tr "inner"));
  Alcotest.(check (float 1e-9)) "self times partition the outer span" total (outer +. inner);
  Alcotest.(check bool) "inner covers about two thirds" true (inner /. total > 0.5);
  let off = Trace.create ~enabled:false in
  Alcotest.(check int) "disabled recorder still calls" 3 (Trace.span off "x" (fun () -> 3));
  Alcotest.(check int) "and records nothing" 0 (List.length (Trace.self_seconds off))

(* The ingest corpus grows file by file, so its percentiles rank sizes. *)
let test_ingest_corpus () =
  let sizes = List.mapi (fun k _ -> String.length (xml_bytes (Inputs.ingest_elem ~seed:7 k))) Inputs.ingest_scales in
  Alcotest.(check bool) "files grow" true (List.sort compare sizes = sizes && List.sort_uniq compare sizes = sizes)

(* Every workload prints the same metrics, and they are the manifest's:
   the end-to-end ones untraced, the per-layer ones traced. *)
let manifest_names section =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let find from sub =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = sub then Some i
      else go (i + 1)
    in
    go from
  in
  let start = Option.get (find 0 (Printf.sprintf "%S: [" section)) in
  let stop = Option.get (find start "]") in
  let rec names from acc =
    match find from "\"name\": \"" with
    | Some i when i < stop ->
      let i = i + 9 in
      let j = String.index_from text i '"' in
      names j (String.sub text i (j - i) :: acc)
    | _ -> List.rev acc
  in
  names start []

let test_manifest () =
  let e2e =
    Common.end_to_end ~setup_s:1.0 ~op_p50_us:1.0 ~op_p90_us:1.0 ~ops_per_s:1.0 ~qerr_gmean:1.0
      ~xsum_bytes_per_xml_kb:1.0
  in
  Alcotest.(check strings) "end-to-end" (manifest_names "end_to_end") (List.map (fun m -> m.Common.name) e2e);
  Alcotest.(check strings) "per-layer" (manifest_names "per_layer") Layers.names

let test_quantile () =
  let xs = [| 4.0; 1.0; 3.0; 2.0; 5.0 |] in
  Alcotest.(check (float 1e-12)) "median" 3.0 (Stats.median xs);
  Alcotest.(check (float 1e-12)) "p90 interpolates" 4.6 (Stats.quantile xs 0.9);
  Alcotest.(check (float 1e-12)) "gmean" 2.0 (Stats.gmean [| 1.0; 4.0 |])

let test_deck_stream () =
  let d = Inputs.deck_stream ~seed:7 ~pool_size:30 ~length:90 in
  List.iter
    (fun b ->
      let block = Array.sub d (30 * b) 30 in
      Array.sort compare block;
      Alcotest.(check (array int)) "each index once per block" (Array.init 30 Fun.id) block)
    [ 0; 1; 2 ]

let test_rate () =
  let r = Stats.Rate.create ~window:0.001 ~min_ops:1 in
  Alcotest.(check bool) "no closed window" true (Float.is_nan (Stats.Rate.best r));
  Stats.Rate.start r 0;
  List.iter (Stats.Rate.tick r) [ 500_000; 1_000_000; 1_500_000; 3_000_000; 3_100_000 ];
  Stats.Rate.start r 10_000_000;
  Stats.Rate.tick r 11_500_000;
  (* Windows: 2 ops in 1 ms, 2 ops in 2 ms, 1 op in 1.5 ms; the open
     window at the restart is dropped. *)
  Alcotest.(check (float 1e-6)) "best window" 2000.0 (Stats.Rate.best r);
  (* With at least 3 operations a window, the first closes at 1.2 ms
     (3 ops, 2500/s), not at 1 ms (1 op, 1000/s). *)
  let r = Stats.Rate.create ~window:0.001 ~min_ops:3 in
  Stats.Rate.start r 0;
  List.iter (Stats.Rate.tick r) [ 1_000_000; 1_100_000; 1_200_000 ];
  Alcotest.(check (float 1e-6)) "window held open for min_ops" 2500.0 (Stats.Rate.best r)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_same_seed;
          Alcotest.test_case "other seed, other inputs" `Quick test_other_seed;
          Alcotest.test_case "dblp predicate set" `Quick test_dblp_predicates;
          Alcotest.test_case "ingest corpus sizes" `Quick test_ingest_corpus;
          Alcotest.test_case "deck stream deals every index" `Quick test_deck_stream;
          Alcotest.test_case "dblp pools answerable from the summary" `Quick test_dblp_pool;
          Alcotest.test_case "treebank pool answerable from the summary" `Quick test_treebank_pool;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "quantiles" `Quick test_quantile;
          Alcotest.test_case "windowed rate" `Quick test_rate;
          Alcotest.test_case "metric names match BENCHMARK.json" `Quick test_manifest;
        ] );
    ]
