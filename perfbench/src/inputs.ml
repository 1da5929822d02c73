open Xmlest_core
module X = Xmlest
module Rng = X.Splitmix

(* Every input derives from the workload seed through an independent
   stream per purpose, so changing how one input is drawn leaves the
   others as they were. *)
let stream ~seed purpose =
  Rng.create ((seed * 1_000_003) + Hashtbl.hash (purpose : string))

(* ---- DBLP ---- *)

let dblp_scale = 0.25
let dblp_grid = 10

let dblp_elem ?(scale = dblp_scale) ~seed () =
  let doc_seed = Rng.int (stream ~seed "dblp") 0x3FFF_FFFF in
  X.Dblp_gen.generate (X.Dblp_gen.config ~seed:doc_seed ~scale ())

(* The ingest corpus: five files of growing size, each from its own
   stream, so the sizes are the same for every seed. *)
let ingest_scales = [ 0.05; 0.1; 0.15; 0.2; 0.25 ]

let ingest_elem ~seed k =
  let doc_seed = Rng.int (stream ~seed (Printf.sprintf "ingest-%d" k)) 0x3FFF_FFFF in
  X.Dblp_gen.generate
    (X.Dblp_gen.config ~seed:doc_seed ~scale:(List.nth ingest_scales k) ())

let write_xml path elem = X.Xml_writer.to_file path elem

let years = List.init 40 (fun k -> 1960 + k)

(* Table 1 of the paper (tags, cite prefixes, decade compounds) plus the
   40 per-year predicates the decade compounds sum over. *)
let dblp_predicates () =
  let tag = X.Predicate.tag in
  let decade d =
    X.Predicate.any_of
      (List.init 10 (fun k -> X.Predicate.text_eq ~tag:"year" (string_of_int (d + k))))
  in
  [
    tag "article"; tag "author"; tag "book"; tag "cdrom"; tag "cite"; tag "title";
    tag "url"; tag "year";
    X.Predicate.text_prefix ~tag:"cite" "conf";
    X.Predicate.text_prefix ~tag:"cite" "journal";
    decade 1980; decade 1990;
  ]
  @ List.map (fun y -> X.Predicate.text_eq ~tag:"year" (string_of_int y)) years

(* ---- Treebank ---- *)

let treebank_sentences = 2000
let treebank_grid = 200
let phrase_tags = [| "S"; "NP"; "VP"; "PP"; "SBAR" |]
let word_tags = [| "NN"; "DT"; "JJ"; "IN"; "VB" |]

let treebank_elem ~seed =
  let doc_seed = Rng.int (stream ~seed "treebank") 0x3FFF_FFFF in
  X.Treebank_gen.generate ~seed:doc_seed ~sentences:treebank_sentences ()

let treebank_predicates () =
  List.map X.Predicate.tag
    ([ "FILE"; "EMPTY" ] @ Array.to_list phrase_tags @ Array.to_list word_tags)

(* ---- Pattern pools ---- *)

type pool = { texts : string array; truth : int array }

(* Root step, then every child but the last as a filter, the last as the
   trailing step: //a[./b][.//c]//d. *)
let twig root children =
  match List.rev children with
  | [] -> "//" ^ root
  | (ax, last) :: rest ->
    let filters =
      List.rev_map (fun (ax, step) -> Printf.sprintf "[.%s%s]" ax step) rest
    in
    "//" ^ root ^ String.concat "" filters ^ ax ^ last

let truth doc text = X.Twig_count.count doc (X.Pattern_parser.pattern_exn text)

(* The first [size] distinct candidates of [next] with a true answer > 0,
   so q-error is defined for every pattern, skipping the texts in
   [taken]. *)
let sample doc ~taken ~size next =
  let seen = Hashtbl.create size in
  List.iter (fun t -> Hashtbl.replace seen t ()) taken;
  let rec go acc n tries =
    if n = size then List.rev acc
    else if tries > 100 * size then failwith "perfbench: too few answerable patterns"
    else
      let text = next () in
      if Hashtbl.mem seen text then go acc n (tries + 1)
      else begin
        Hashtbl.add seen text ();
        let real = truth doc text in
        if real > 0 then go ((text, real) :: acc) (n + 1) (tries + 1)
        else go acc n (tries + 1)
      end
  in
  go [] 0 0

(* Round-robin over the strata: pool position r comes from stratum
   r mod k while every stratum lasts, so a pattern's position (its Zipf
   rank) says nothing about its shape. *)
let rec interleave strata =
  match List.filter (fun l -> not (List.is_empty l)) strata with
  | [] -> []
  | live -> List.map List.hd live @ interleave (List.map List.tl live)

let of_pairs pairs =
  { texts = Array.of_list (List.map fst pairs); truth = Array.of_list (List.map snd pairs) }

(* A seeded deck dealt in order and reshuffled when exhausted: every
   card is drawn equally often, however the seed falls. *)
let deck rng cards =
  let cards = Array.copy cards and next = ref (Array.length cards) in
  fun () ->
    if !next = Array.length cards then begin
      Rng.shuffle rng cards;
      next := 0
    end;
    incr next;
    cards.(!next - 1)

(* The DBLP queries of the paper-reproduction harness (bench/main.ml: the
   twig section, the plan-choice and timing workloads, the equi-depth
   ablation and the mapped-store workload) that use catalog predicates
   only.  They head the pool, so the Zipf stream asks for them most. *)
let paper_queries =
  [
    "//article[.//author][.//cite]"; "//article[.//author][.//cdrom]";
    "//book[.//author][.//title]"; "//article[.//cite[starts-with(text(),'conf')]]";
    "//book[.//author][.//cite]"; "//article[.//author][.//cite]//cdrom";
    "//article//author"; "//article//cdrom"; "//book//cdrom"; "//article//title";
    "//article//year"; "//book//author"; "//article//cite"; "//book//title";
  ]

(* After the paper's queries, twigs rooted at the catalog's record tags
   with 1-3 leaves: field tags, per-year text or a cite prefix, each under
   a / or // edge.  Strata fix how many patterns each (root, leaf count)
   contributes, and leaves and edges are dealt from decks (half field
   tags, a third per-year, a sixth cite prefixes), so pools from
   different seeds differ in which leaves meet, not in how often each
   leaf or shape occurs. *)
let dblp_pool ~seed doc =
  let rng = stream ~seed "dblp-pool" in
  let leaves =
    Array.concat
      [
        Array.concat (List.init 10 (fun _ -> [| "author"; "title"; "url"; "year"; "cite"; "cdrom" |]));
        Array.of_list (List.map (Printf.sprintf "year[text()='%d']") years);
        Array.concat
          (List.init 10 (fun _ ->
               [| "cite[starts-with(text(),'conf')]"; "cite[starts-with(text(),'journal')]" |]));
      ]
  in
  let leaf = deck rng leaves and edge = deck rng [| "/"; "//" |] in
  let head =
    List.filter_map
      (fun text ->
        let real = truth doc text in
        if real > 0 then Some (text, real) else None)
      paper_queries
  in
  let stratum (root, size) n =
    sample doc ~taken:paper_queries ~size (fun () ->
        twig root (List.init n (fun _ -> (edge (), leaf ()))))
  in
  (* One leaf allows fewer than a hundred distinct patterns per root. *)
  of_pairs
    (head
    @ interleave
        [
          stratum ("article", 60) 1; stratum ("book", 30) 1;
          stratum ("article", 150) 2; stratum ("book", 30) 2;
          stratum ("article", 150) 3; stratum ("book", 30) 3;
        ])

(* Every pattern of a small grammar over the recursive phrase tags that
   has an answer, in seeded order: 2-node paths to any tag under / or //,
   3-node // paths, and //p[.//x]//y twigs.  A random sample of this
   space would swing q-error from seed to seed by more than any change
   worth detecting; the seed still picks the document and the order. *)
let treebank_pool ~seed doc =
  let rng = stream ~seed "treebank-pool" in
  let ph = Array.to_list phrase_tags in
  let all = ph @ Array.to_list word_tags in
  let pairs =
    List.concat_map (fun p -> List.concat_map (fun ax -> List.map (fun x -> "//" ^ p ^ ax ^ x) all) [ "/"; "//" ]) ph
  in
  let paths = List.concat_map (fun p -> List.concat_map (fun q -> List.map (fun r -> String.concat "//" [ ""; p; q; r ]) ph) ph) ph in
  let twigs =
    List.concat_map
      (fun p ->
        List.concat
          (List.mapi
             (fun i x -> List.filteri (fun j _ -> j >= i) ph |> List.map (fun y -> twig p [ ("//", x); ("//", y) ]))
             ph))
      ph
  in
  let candidates = Array.of_list (pairs @ paths @ twigs) in
  Rng.shuffle rng candidates;
  of_pairs
    (Array.to_list candidates
    |> List.filter_map (fun text ->
           let real = truth doc text in
           if real > 0 then Some (text, real) else None))

(* ---- Request streams ---- *)

let uniform_stream ~seed ~pool_size ~length =
  let rng = stream ~seed "uniform-stream" in
  Array.init length (fun _ -> Rng.int rng pool_size)

let deck_stream ~seed ~pool_size ~length =
  let next = deck (stream ~seed "deck-stream") (Array.init pool_size Fun.id) in
  Array.init length (fun _ -> next ())

(* Zipf with exponent [s] over pool positions: position r has weight
   1 / (r + 1)^s. *)
let zipf_stream ~seed ~s ~pool_size ~length =
  let rng = stream ~seed "zipf-stream" in
  let z = X.Distributions.zipf ~n:pool_size ~s in
  Array.init length (fun _ -> X.Distributions.zipf_sample rng z - 1)

(* ---- Update stream ---- *)

let replay_updates = 100

let record rng k =
  let module E = X.Elem in
  let year = string_of_int (Rng.choose rng (Array.of_list years)) in
  E.make "article"
    ~attrs:[ ("key", Printf.sprintf "perfbench/%d" k) ]
    ~children:
      ([
         E.leaf "author" (Printf.sprintf "Author %d" (Rng.int rng 5000));
         E.leaf "title" (Printf.sprintf "Maintained Entry %d" k);
         E.leaf "year" year;
         E.leaf "url" (Printf.sprintf "db/perfbench/%d.html" k);
       ]
      @
      if Rng.bool rng 0.5 then
        [ E.leaf "cite" (Rng.choose rng [| "conf/vldb/"; "journals/tods/"; "books/" |]) ]
      else [])

(* End appends, interior inserts (a record spliced between existing
   records), deletes of any non-root subtree and text replacements, each
   drawn against the document as edited so far.  Kinds are dealt from a
   deck of 20 (7 appends, 5 interior inserts, 4 deletes, 4 replacements)
   and interior inserts land in a decile of the record list dealt from a
   deck of 10: how much drift accumulates, and so how often the summary
   rebuilds, is then about the same for every seed.  Returns the stream
   and the final document. *)
let updates ~seed ~count doc =
  let module U = X.Update in
  let rng = stream ~seed "updates" in
  let kind =
    deck rng
      (Array.concat
         [ Array.make 7 `Append; Array.make 5 `Interior; Array.make 4 `Delete; Array.make 4 `Replace ])
  in
  let decile = deck rng (Array.init 10 Fun.id) in
  let cur = ref doc in
  let ops =
    List.init count (fun k ->
        let d = !cur in
        let size = X.Document.size d in
        let u =
          match kind () with
          | `Append -> U.Insert { parent = 0; index = max_int; subtree = record rng k }
          | `Interior ->
            let records = List.length (X.Document.children d 0) in
            let index = ((decile () * records) + Rng.int rng records) / 10 in
            U.Insert { parent = 0; index; subtree = record rng k }
          | `Delete -> U.Delete { node = 1 + Rng.int rng (size - 1) }
          | `Replace ->
            U.Replace_text
              {
                node = 1 + Rng.int rng (size - 1);
                text = string_of_int (Rng.choose rng (Array.of_list years));
              }
        in
        cur := U.apply_doc d u;
        u)
  in
  (ops, !cur)

let predicates = function
  | "dblp" -> dblp_predicates ()
  | "treebank" -> treebank_predicates ()
  | other -> invalid_arg ("Inputs.predicates: " ^ other)
