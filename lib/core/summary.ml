open Xmlest_xmldb
open Xmlest_query
open Xmlest_histogram
open Xmlest_estimate
module Update = Xmlest_maintain.Update
module Apply = Xmlest_maintain.Apply
module Staleness = Xmlest_maintain.Staleness

type entry = {
  pred : Predicate.t;
  hist : Position_histogram.t;
  no_overlap : bool;
  cvg : Coverage_histogram.t option;
  lvl : Level_histogram.t option;
}

type build_stats = {
  path : [ `Fused | `Legacy | `Streamed ];
  passes : int;
  predicate_evals : int;
  build_time : float;
}

type t = {
  mutable doc : Document.t option;  (* None for summaries loaded from disk *)
  mutable grid : Grid.t;
  preds : Predicate.t list;
  entries : (string, entry) Hashtbl.t;  (* keyed by Predicate.name *)
  mutable pop : Position_histogram.t;
  with_levels : bool;
  hist_cache : (string, Position_histogram.t) Hashtbl.t;
      (* position histograms of non-base predicates, built from the
         document on first use, keyed by Predicate.name *)
  lph_cache : (string, Level_position_histogram.t) Hashtbl.t;
  mutable stats : build_stats option;  (* None for summaries loaded from disk *)
  mutable maint : Apply.t option;
      (* incremental-maintenance engine, created lazily on the first
         [apply]; doc/grid/pop/stats are mutable so a
         staleness-triggered rebuild can swap them in place *)
}

let build_entry ?(schema_no_overlap = fun _ -> None) ~grid ~with_levels doc pred =
  let nodes = Predicate.matching_nodes doc pred in
  let hist = Position_histogram.of_nodes doc ~grid nodes in
  let no_overlap =
    match schema_no_overlap pred with
    | Some b -> b
    | None -> not (Interval_ops.has_nesting doc nodes)
  in
  let cvg =
    if no_overlap && Array.length nodes > 0 then
      Some (Coverage_histogram.build doc ~grid pred)
    else None
  in
  let lvl = if with_levels then Some (Level_histogram.build doc pred) else None in
  { pred; hist; no_overlap; cvg; lvl }

(* Positions the equi-depth boundaries are drawn from: the starts and ends
   of the nodes matching the base predicates, so bucket resolution
   concentrates where the catalog's elements actually live.  (Over the
   whole document the position population is perfectly dense — one node
   per position pair — and equi-depth degenerates to uniform.)  Falls back
   to every node when the predicates match nothing. *)
let summary_positions doc preds =
  let out = ref [] in
  List.iter
    (fun pred ->
      Array.iter
        (fun v ->
          out := Document.start_pos doc v :: Document.end_pos doc v :: !out)
        (Predicate.matching_nodes doc pred))
    preds;
  let positions =
    match !out with
    | [] ->
      Array.init (2 * Document.size doc) (fun k ->
          if k land 1 = 0 then Document.start_pos doc (k / 2)
          else Document.end_pos doc (k / 2))
    | l -> Array.of_list l
  in
  Array.sort Int.compare positions;
  positions

(* Traversal and AST-eval accounting for the legacy path, mirroring its
   call sites exactly: one [matching_nodes] pass evaluates the AST on the
   tag-index candidates (or every node when no conjunct pins the tag, and
   not at all for bare tag predicates); [Coverage_histogram.build]
   evaluates the predicate once per node with a parent (all but the store
   root); [Level_histogram.build] runs its own [matching_nodes]. *)
let legacy_matching_evals doc pred =
  match pred with
  | Predicate.True | Predicate.Tag _ -> 0
  | p -> (
    match Predicate.tag_of p with
    | Some t -> Document.tag_count doc t
    | None -> Document.size doc)

let build_legacy ?(grid_size = 10) ?(grid_kind = `Uniform) ?schema_no_overlap
    ?(with_levels = true) doc preds =
  let t0 = Unix.gettimeofday () in
  let passes = ref 0 and evals = ref 0 in
  let grid =
    match grid_kind with
    | `Uniform -> Grid.create ~size:grid_size ~max_pos:(Document.max_pos doc)
    | `Equidepth ->
      List.iter
        (fun pred ->
          incr passes;
          evals := !evals + legacy_matching_evals doc pred)
        preds;
      Grid.equidepth ~size:grid_size ~max_pos:(Document.max_pos doc)
        ~positions:(summary_positions doc preds)
  in
  let entries = Hashtbl.create 64 in
  List.iter
    (fun pred ->
      let key = Predicate.name pred in
      if not (Hashtbl.mem entries key) then begin
        let e = build_entry ?schema_no_overlap ~grid ~with_levels doc pred in
        (* matching_nodes + of_nodes + has_nesting, plus a full coverage
           pass when built, plus matching_nodes + fill for levels. *)
        passes :=
          !passes + 3
          + (if e.cvg <> None then 1 else 0)
          + (if with_levels then 2 else 0);
        evals :=
          !evals
          + legacy_matching_evals doc pred
          + (if e.cvg <> None then Document.size doc - 1 else 0)
          + (if with_levels then legacy_matching_evals doc pred else 0);
        Hashtbl.add entries key e
      end)
    preds;
  incr passes (* population histogram *);
  {
    doc = Some doc;
    grid;
    preds;
    entries;
    pop = Position_histogram.population doc ~grid;
    with_levels;
    hist_cache = Hashtbl.create 8;
    lph_cache = Hashtbl.create 8;
    stats =
      Some
        {
          path = `Legacy;
          passes = !passes;
          predicate_evals = !evals;
          build_time = Unix.gettimeofday () -. t0;
        };
    maint = None;
  }

(* --- Fused construction: sequential or partitioned over domains ------- *)

module Pool = Xmlest_parallel.Pool
module Chunking = Xmlest_parallel.Chunking
module Builder_merge = Xmlest_parallel.Builder_merge

(* First index with [arr.(k) >= x] in a sorted array ([Array.length arr]
   when none), and sorted membership — used to seed the equi-depth replay
   cursors and the stream seeds at a chunk boundary without re-evaluating
   any predicate. *)
let lower_bound arr x =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let mem_sorted arr x =
  let k = lower_bound arr x in
  k < Array.length arr && Int.equal arr.(k) x

(* One chunk [lo, hi) of the fused document-order sweep.  The chunk fills,
   for every base predicate at once: the position histogram, the level
   histogram, the coverage run-length lists and the nesting flag — plus
   the shared population histogram.  For the leading chunk this is
   exactly the sequential sweep.  A later chunk seeds each predicate's
   interval stream with the set-member strict ancestors of [lo]
   (outermost first) — precisely the stack the sequential sweep would
   hold on arriving at [lo] — so every feed yields the same nearest
   strict P-ancestor it would have sequentially.  Node cells are cached
   chunk-locally; a covering ancestor before the chunk has its cell
   recomputed on the spot ([Grid.cell_of_node] is pure).

   With [match_arrays] (equi-depth), the matched sets were collected in
   pass 1: the fill replays them through per-predicate cursors seeded by
   binary search, and seed membership is a binary search too, so the
   replay performs no predicate evaluations at all.  Without it
   (uniform / explicit grid), a fresh dispatch table — dispatch state is
   mutable, so it must not be shared across domains — evaluates each
   node, plus the ancestors of [lo] once for the seeds. *)
let sweep_range ~grid ~p ~schema ~with_levels ~upreds ~match_arrays doc ~lo ~hi =
  let cell_of v =
    let i, j =
      Grid.cell_of_node grid ~start_pos:(Document.start_pos doc v)
        ~end_pos:(Document.end_pos doc v)
    in
    Grid.index grid ~i ~j
  in
  let hist_b = Array.init p (fun _ -> Position_histogram.builder grid) in
  let lvl_b =
    if with_levels then Some (Array.init p (fun _ -> Level_histogram.builder ()))
    else None
  in
  let cvg_b =
    Array.init p (fun u ->
        (* A schema override saying "overlaps" means the coverage histogram
           can never be kept; skip its accumulation entirely. *)
        match schema.(u) with
        | Some false -> None
        | Some true | None -> Some (Coverage_histogram.builder grid))
  in
  let disp =
    match match_arrays with
    | None -> Some (Predicate.dispatch doc upreds)
    | Some _ -> None
  in
  let streams =
    if lo = 0 then Array.init p (fun _ -> Interval_ops.stream doc)
    else begin
      let seeds = Array.make (Int.max p 1) [] in
      List.iter
        (fun a ->
          match (disp, match_arrays) with
          | Some d, _ ->
            Predicate.dispatch_node d doc a ~f:(fun u ->
                seeds.(u) <- a :: seeds.(u))
          | None, Some arrays ->
            for u = 0 to p - 1 do
              if mem_sorted arrays.(u) a then seeds.(u) <- a :: seeds.(u)
            done
          | None, None -> assert false)
        (Document.ancestors doc lo);
      Array.init p (fun u ->
          Interval_ops.stream_seeded doc ~open_nodes:(List.rev seeds.(u)))
    end
  in
  let matched = Array.make (Int.max p 1) false in
  let matched_list = Array.make (Int.max p 1) 0 in
  let counts = Array.make (Int.max p 1) 0 in
  let populations = Array.make (Grid.cells grid) 0.0 in
  let pop_b = Position_histogram.builder grid in
  let node_cell = Array.make (Int.max (hi - lo) 1) 0 in
  (* The fill pass, shared by both grid kinds; [fill_matched] leaves the
     indices of the predicates matching [v] in [matched_list.(0..k-1)]
     (and sets their [matched] flags, cleared here after use). *)
  let fill_pass fill_matched =
    for v = lo to hi - 1 do
      let idx = cell_of v in
      node_cell.(v - lo) <- idx;
      populations.(idx) <- populations.(idx) +. 1.0;
      Position_histogram.feed_cell pop_b idx;
      let nmatched = fill_matched v in
      for u = 0 to p - 1 do
        let in_set = matched.(u) in
        let nearest = Interval_ops.feed streams.(u) v ~in_set in
        (match cvg_b.(u) with
        | Some b when nearest >= 0 ->
          let covering =
            if nearest >= lo then node_cell.(nearest - lo) else cell_of nearest
          in
          Coverage_histogram.feed b ~covered:idx ~covering
        | Some _ | None -> ());
        if in_set then begin
          Position_histogram.feed_cell hist_b.(u) idx;
          (match lvl_b with
          | Some lb -> Level_histogram.feed lb.(u) (Document.level doc v)
          | None -> ());
          counts.(u) <- counts.(u) + 1
        end
      done;
      for k = 0 to nmatched - 1 do
        matched.(matched_list.(k)) <- false
      done
    done
  in
  (match (match_arrays, disp) with
  | None, Some d ->
    fill_pass (fun v ->
        let nmatched = ref 0 in
        Predicate.dispatch_node d doc v ~f:(fun u ->
            matched.(u) <- true;
            matched_list.(!nmatched) <- u;
            incr nmatched);
        !nmatched)
  | Some arrays, _ ->
    (* Replay pass 1's matches through per-predicate cursors: the arrays
       are in document order, so each head is compared against [v] once. *)
    let cursor =
      Array.init (Int.max p 1) (fun u ->
          if u < p then lower_bound arrays.(u) lo else 0)
    in
    fill_pass (fun v ->
        let nmatched = ref 0 in
        for u = 0 to p - 1 do
          let arr = arrays.(u) in
          if cursor.(u) < Array.length arr && Int.equal arr.(cursor.(u)) v
          then begin
            cursor.(u) <- cursor.(u) + 1;
            matched.(u) <- true;
            matched_list.(!nmatched) <- u;
            incr nmatched
          end
        done;
        !nmatched)
  | None, None -> assert false);
  {
    Builder_merge.p_hists = hist_b;
    p_levels = lvl_b;
    p_coverage = cvg_b;
    p_pop = pop_b;
    p_populations = populations;
    p_counts = counts;
    p_nesting = Array.init p (fun u -> Interval_ops.nesting_seen streams.(u));
    p_evals = (match disp with Some d -> Predicate.dispatch_evals d | None -> 0);
  }

(* Uniform grids need a single sweep.  Equi-depth grids need the matched
   node sets before the grid exists, so a first match-only pass collects
   them (also yielding the quantile positions), and the fill pass replays
   the matches without re-evaluating anything — the feed sequences are
   identical to the legacy builders', so the resulting histograms are
   bit-identical.

   Both passes partition the node range into contiguous chunks (one per
   domain by default, or of [?chunk_size] nodes) swept concurrently on a
   domain pool and merged {e in chunk-index order}, never completion
   order.  Every per-cell quantity is an integer count fed one unit at a
   time, so the merged sums are exact and the result is bit-identical —
   [to_string] equal — to the sequential sweep for every domain count and
   chunk size; the differential QCheck suite pins this. *)
let build_fused ?grid:grid_override ?(grid_size = 10) ?(grid_kind = `Uniform)
    ?schema_no_overlap ?(with_levels = true) ?(domains = 1) ?chunk_size doc
    preds =
  let t0 = Unix.gettimeofday () in
  let n = Document.size doc in
  (* Unique predicates in first-occurrence order (the legacy dedup). *)
  let uniq =
    let seen = Hashtbl.create 16 in
    let out = ref [] in
    List.iter
      (fun pred ->
        let key = Predicate.name pred in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key (List.length !out);
          out := (key, pred) :: !out
        end)
      preds;
    (seen, Array.of_list (List.rev !out))
  in
  let uniq_index, uniq = uniq in
  let p = Array.length uniq in
  let upreds = List.map snd (Array.to_list uniq) in
  let schema =
    match schema_no_overlap with
    | None -> Array.make p None
    | Some f -> Array.map (fun (_, pred) -> f pred) uniq
  in
  let chunks =
    match chunk_size with
    | Some size -> Chunking.ranges_of_size ~n ~size
    | None -> Chunking.ranges ~n ~count:domains
  in
  let ntasks = Array.length chunks in
  let pass1_evals = ref 0 in
  (* Pass 1 (equi-depth only): matched node sets, no grid needed yet —
     collected per chunk with a chunk-private dispatch table and
     concatenated in chunk order.  An explicit [?grid] (used by
     maintenance rebuild comparisons: positions past its [max_pos] clamp
     into the last bucket) always takes the single-pass route. *)
  let grid, match_arrays =
    match (grid_override, grid_kind) with
    | Some g, _ -> (g, None)
    | None, `Uniform ->
      (Grid.create ~size:grid_size ~max_pos:(Document.max_pos doc), None)
    | None, `Equidepth ->
      let per_chunk =
        (* lint: allow domain-escape — doc and chunk table are read-only shares *)
        Pool.run ~domains ~tasks:ntasks (fun k ->
            let { Chunking.lo; hi } = chunks.(k) in
            let disp = Predicate.dispatch doc upreds in
            let acc = Array.make (Int.max p 1) [] in
            for v = lo to hi - 1 do
              Predicate.dispatch_node disp doc v ~f:(fun u ->
                  acc.(u) <- v :: acc.(u))
            done;
            ( Array.map (fun l -> Array.of_list (List.rev l)) (Array.sub acc 0 p),
              Predicate.dispatch_evals disp ))
      in
      Array.iter (fun (_, e) -> pass1_evals := !pass1_evals + e) per_chunk;
      let arrays =
        Array.init p (fun u ->
            Array.concat
              (Array.to_list (Array.map (fun (a, _) -> a.(u)) per_chunk)))
      in
      (* Quantile sample: starts and ends of the matched nodes, once per
         occurrence in the original predicate list (duplicates count
         twice, as in [summary_positions]); every node as fallback. *)
      let total =
        List.fold_left
          (fun acc pred ->
            acc + Array.length arrays.(Hashtbl.find uniq_index (Predicate.name pred)))
          0 preds
      in
      let positions =
        if total = 0 then
          Array.init (2 * n) (fun k ->
              if k land 1 = 0 then Document.start_pos doc (k / 2)
              else Document.end_pos doc (k / 2))
        else begin
          let out = Array.make (2 * total) 0 in
          let w = ref 0 in
          List.iter
            (fun pred ->
              Array.iter
                (fun v ->
                  out.(!w) <- Document.start_pos doc v;
                  out.(!w + 1) <- Document.end_pos doc v;
                  w := !w + 2)
                arrays.(Hashtbl.find uniq_index (Predicate.name pred)))
            preds;
          out
        end
      in
      Array.sort Int.compare positions;
      ( Grid.equidepth ~size:grid_size ~max_pos:(Document.max_pos doc)
          ~positions,
        Some arrays )
  in
  let partials =
    if ntasks = 0 then
      [| sweep_range ~grid ~p ~schema ~with_levels ~upreds ~match_arrays doc
           ~lo:0 ~hi:0 |]
    else
      (* lint: allow domain-escape — read-only shares; builders are chunk-local *)
      Pool.run ~domains ~tasks:ntasks (fun k ->
          let { Chunking.lo; hi } = chunks.(k) in
          sweep_range ~grid ~p ~schema ~with_levels ~upreds ~match_arrays doc
            ~lo ~hi)
  in
  let merged = Builder_merge.merge partials in
  let {
    Builder_merge.p_hists = hist_b;
    p_levels = lvl_b;
    p_coverage = cvg_b;
    p_pop = pop_b;
    p_populations = populations;
    p_counts = counts;
    p_nesting = nesting;
    p_evals = sweep_evals;
  } =
    merged
  in
  let entries = Hashtbl.create 64 in
  Array.iteri
    (fun u (key, pred) ->
      let no_overlap =
        match schema.(u) with
        | Some b -> b
        | None -> not nesting.(u)
      in
      let cvg =
        match cvg_b.(u) with
        | Some b when no_overlap && counts.(u) > 0 ->
          Some (Coverage_histogram.finish b ~populations)
        | Some _ | None -> None
      in
      let lvl =
        match lvl_b with
        | Some lb -> Some (Level_histogram.finish lb.(u))
        | None -> None
      in
      Hashtbl.add entries key
        { pred; hist = Position_histogram.finish hist_b.(u); no_overlap; cvg; lvl })
    uniq;
  {
    doc = Some doc;
    grid;
    preds;
    entries;
    pop = Position_histogram.finish pop_b;
    with_levels;
    hist_cache = Hashtbl.create 8;
    lph_cache = Hashtbl.create 8;
    stats =
      Some
        {
          path = `Fused;
          passes =
            (match (grid_override, grid_kind) with
            | Some _, _ | None, `Uniform -> 1
            | None, `Equidepth -> 2);
          predicate_evals = !pass1_evals + sweep_evals;
          build_time = Unix.gettimeofday () -. t0;
        };
    maint = None;
  }

let build = build_fused

(* --- Out-of-core streaming construction ------------------------------- *)

(* The streaming build consumes SAX events and never materializes a
   [Document.t]: memory stays O(element depth + summary size) for a
   document of any length.  A node's predicate match status is decidable
   only at its close event (its character data is complete only then), so
   pass A writes the nodes in end-position (post-order) order; the
   builders are all order-insensitive integer accumulators, so the
   finished histograms are bit-identical to the in-memory build's
   pre-order feeds (the differential QCheck suite pins [to_string]
   equality for both grid kinds).

   Pass A parses once, evaluates the unique predicates per close event,
   and spills one fixed-size record per node — start, end, level, match
   bitmask — to a temp file in post-order.  The grid is then derived
   (equi-depth scans the spill once more for the quantile positions),
   and pass B replays the spill through the shared fused builders.

   Coverage needs each covered node's *nearest* strict P-ancestor, which
   is unknowable at the node's own close (outer ancestors close later).
   Pass B therefore reads the spill backwards: reversed post-order visits
   every ancestor before its descendants, so per predicate one stack of
   open set members (start position and cell) answers it directly — pop
   the entries that do not contain the node (their start lies after the
   node's), and the top is the nearest set ancestor.  The stacks hold
   ancestors only, so pass B runs in O(depth) memory per predicate. *)

let mask_bits = 62 (* mask bits per spill word; keeps every field an int *)

(* Spill I/O in blocks of whole records: pass A fills a block in place
   and writes it out when full; the readers fetch blocks from the end of
   the file backwards and hand each record to [f] as (block, offset), so
   no record is copied or decoded into a tuple. *)
let spill_block_records = 2048

let spill_get blk off k = Int64.to_int (Bytes.get_int64_le blk (off + (8 * k)))

let iter_spill_rev path ~rec_size ~n f =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let blk = Bytes.create (spill_block_records * rec_size) in
  let hi = ref n in
  while !hi > 0 do
    let lo = Int.max 0 (!hi - spill_block_records) in
    seek_in ic (lo * rec_size);
    really_input ic blk 0 ((!hi - lo) * rec_size);
    for k = !hi - lo - 1 downto 0 do
      f blk (k * rec_size)
    done;
    hi := lo
  done

(* Does evaluating the predicate read the element's character data? *)
let rec reads_text = function
  | Predicate.Text_eq _ | Text_prefix _ | Text_suffix _ | Text_contains _ -> true
  | True | Tag _ | Attr_eq _ | Level_eq _ -> false
  | And (a, b) | Or (a, b) -> reads_text a || reads_text b
  | Not a -> reads_text a

let build_stream ?(grid_size = 10) ?(grid_kind = `Uniform) ?schema_no_overlap
    ?(with_levels = true) next preds =
  let t0 = Unix.gettimeofday () in
  (* Unique predicates in first-occurrence order (the fused dedup). *)
  let uniq_index = Hashtbl.create 16 in
  let uniq =
    let out = ref [] in
    List.iter
      (fun pred ->
        let key = Predicate.name pred in
        if not (Hashtbl.mem uniq_index key) then begin
          Hashtbl.add uniq_index key (List.length !out);
          out := (key, pred) :: !out
        end)
      preds;
    Array.of_list (List.rev !out)
  in
  let p = Array.length uniq in
  let schema =
    match schema_no_overlap with
    | None -> Array.make (Int.max p 1) None
    | Some f -> Array.map (fun (_, pred) -> f pred) uniq
  in
  let evalp = Array.map (fun (_, pred) -> Predicate.compile_parts pred) uniq in
  (* The predicates applicable to an element — those pinned to its tag
     plus the unpinned ones — with whether any of them reads character
     data: one table lookup per element, by tag. *)
  let bucket us =
    let us = Array.of_list us in
    (us, Array.exists (fun u -> reads_text (snd uniq.(u))) us)
  in
  let pinned = Hashtbl.create 16 and unpinned = ref [] in
  for u = p - 1 downto 0 do
    match Predicate.tag_of (snd uniq.(u)) with
    | Some t ->
      Hashtbl.replace pinned t (u :: Option.value ~default:[] (Hashtbl.find_opt pinned t))
    | None -> unpinned := u :: !unpinned
  done;
  let buckets = Hashtbl.create 16 in
  Hashtbl.iter (fun t us -> Hashtbl.replace buckets t (bucket (us @ !unpinned))) pinned;
  let unpinned = bucket !unpinned in
  let nwords = (p + mask_bits - 1) / mask_bits in
  let rec_size = 8 * (3 + nwords) in
  let spill_path = Filename.temp_file "xmlest-spill" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove spill_path with Sys_error _ -> ())
  @@ fun () ->
  let n = ref 0 and pos = ref 0 and evals = ref 0 in
  let matched = Array.make p 0 in
  (* --- Pass A: parse, evaluate at close events, spill post-order. ---- *)
  let () =
    let oc = open_out_bin spill_path in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
    let blk = Bytes.create (spill_block_records * rec_size) in
    let used = ref 0 in
    (* Open-element frames; the buffer collects the element's direct
       character data across child elements, trimmed at close exactly as
       Xml_parser trims Elem text — only for elements some applicable
       predicate reads the text of. *)
    let f_tag = ref (Array.make 16 "") in
    let f_attrs = ref (Array.make 16 []) in
    let f_start = ref (Array.make 16 0) in
    let f_preds = ref (Array.make 16 unpinned) in
    let f_text = ref (Array.init 16 (fun _ -> Buffer.create 16)) in
    let depth = ref 0 in
    let grow () =
      let d = Array.length !f_tag in
      let bigger a fill = Array.init (2 * d) (fun k -> if k < d then a.(k) else fill k) in
      f_tag := bigger !f_tag (fun _ -> "");
      f_attrs := bigger !f_attrs (fun _ -> []);
      f_start := bigger !f_start (fun _ -> 0);
      f_preds := bigger !f_preds (fun _ -> unpinned);
      f_text := bigger !f_text (fun _ -> Buffer.create 16)
    in
    let rec loop () =
      match next () with
      | None -> ()
      | Some ev ->
        (match ev with
        | Sax.Open { tag; attrs } ->
          if Int.equal !depth (Array.length !f_tag) then grow ();
          !f_tag.(!depth) <- tag;
          !f_attrs.(!depth) <- attrs;
          !f_start.(!depth) <- !pos;
          !f_preds.(!depth) <-
            Option.value ~default:unpinned (Hashtbl.find_opt buckets tag);
          Buffer.clear !f_text.(!depth);
          incr pos;
          incr depth
        | Sax.Text s ->
          if !depth > 0 && snd !f_preds.(!depth - 1) then
            Buffer.add_string !f_text.(!depth - 1) s
        | Sax.Close ->
          decr depth;
          let d = !depth in
          let tag = !f_tag.(d) and attrs = !f_attrs.(d) in
          let us, reads = !f_preds.(d) in
          let text = if reads then Sax.trim_text (Buffer.contents !f_text.(d)) else "" in
          if Int.equal !used (Bytes.length blk) then begin
            output oc blk 0 !used;
            used := 0
          end;
          let off = !used in
          Bytes.set_int64_le blk off (Int64.of_int !f_start.(d));
          Bytes.set_int64_le blk (off + 8) (Int64.of_int !pos);
          Bytes.set_int64_le blk (off + 16) (Int64.of_int d);
          Bytes.fill blk (off + 24) (8 * nwords) '\000';
          evals := !evals + Array.length us;
          Array.iter
            (fun u ->
              if evalp.(u) ~tag ~attrs ~text ~level:d then begin
                matched.(u) <- matched.(u) + 1;
                let w = off + 24 + (8 * (u / mask_bits)) in
                Bytes.set_int64_le blk w
                  (Int64.logor (Bytes.get_int64_le blk w)
                     (Int64.shift_left 1L (u mod mask_bits)))
              end)
            us;
          used := off + rec_size;
          incr pos;
          incr n);
        loop ()
    in
    loop ();
    output oc blk 0 !used
  in
  if !n = 0 then failwith "Summary.build_stream: empty event stream";
  let max_pos = !pos - 1 in
  let matches blk off u =
    spill_get blk off (3 + (u / mask_bits)) land (1 lsl (u mod mask_bits)) <> 0
  in
  (* --- Grid: uniform directly; equi-depth scans the spill for the
     quantile sample (starts and ends of matched nodes, once per
     occurrence in the original predicate list, every position as
     fallback — the same multiset the in-memory path sorts). ---------- *)
  let passes, grid =
    match grid_kind with
    | `Uniform -> (2, Grid.create ~size:grid_size ~max_pos)
    | `Equidepth ->
      let mult = Array.make p 0 in
      List.iter
        (fun pred ->
          let u = Hashtbl.find uniq_index (Predicate.name pred) in
          mult.(u) <- mult.(u) + 1)
        preds;
      let total = ref 0 in
      Array.iteri (fun u m -> total := !total + (m * matched.(u))) mult;
      let positions =
        if Int.equal !total 0 then Array.init (2 * !n) Fun.id
        else begin
          let out = Array.make (2 * !total) 0 and w = ref 0 in
          iter_spill_rev spill_path ~rec_size ~n:!n (fun blk off ->
              for u = 0 to p - 1 do
                if matches blk off u then
                  for _ = 1 to mult.(u) do
                    out.(!w) <- spill_get blk off 0;
                    out.(!w + 1) <- spill_get blk off 1;
                    w := !w + 2
                  done
              done);
          out
        end
      in
      Array.sort Int.compare positions;
      (3, Grid.equidepth ~size:grid_size ~max_pos ~positions)
  in
  (* --- Pass B: replay the spill backwards through the fused builders. *)
  let hist_b = Array.init p (fun _ -> Position_histogram.builder grid) in
  let lvl_b =
    if with_levels then Some (Array.init p (fun _ -> Level_histogram.builder ()))
    else None
  in
  let cvg_b =
    Array.init p (fun u ->
        match schema.(u) with
        | Some false -> None
        | Some true | None -> Some (Coverage_histogram.builder grid))
  in
  let pop_b = Position_histogram.builder grid in
  let populations = Array.make (Grid.cells grid) 0.0 in
  let nesting = Array.make p false in
  (* Per predicate, the set members containing the current node: start
     positions and cells, innermost last. *)
  let st_start = Array.init p (fun _ -> Array.make 16 0) in
  let st_cell = Array.init p (fun _ -> Array.make 16 0) in
  let st_len = Array.make p 0 in
  iter_spill_rev spill_path ~rec_size ~n:!n (fun blk off ->
      let start_pos = spill_get blk off 0 in
      let i, j = Grid.cell_of_node grid ~start_pos ~end_pos:(spill_get blk off 1) in
      let idx = Grid.index grid ~i ~j in
      populations.(idx) <- populations.(idx) +. 1.0;
      Position_histogram.feed_cell pop_b idx;
      for u = 0 to p - 1 do
        let starts = st_start.(u) in
        let len = ref st_len.(u) in
        while !len > 0 && starts.(!len - 1) > start_pos do
          decr len
        done;
        let in_set = matches blk off u in
        if !len > 0 then begin
          (match cvg_b.(u) with
          | Some b -> Coverage_histogram.feed b ~covered:idx ~covering:st_cell.(u).(!len - 1)
          | None -> ());
          if in_set then nesting.(u) <- true
        end;
        if in_set then begin
          if Int.equal !len (Array.length starts) then begin
            let grow a =
              let bigger = Array.make (2 * !len) 0 in
              Array.blit a 0 bigger 0 !len;
              bigger
            in
            st_start.(u) <- grow starts;
            st_cell.(u) <- grow st_cell.(u)
          end;
          st_start.(u).(!len) <- start_pos;
          st_cell.(u).(!len) <- idx;
          incr len;
          Position_histogram.feed_cell hist_b.(u) idx;
          (match lvl_b with
          | Some lb -> Level_histogram.feed lb.(u) (spill_get blk off 2)
          | None -> ())
        end;
        st_len.(u) <- !len
      done);
  let entries = Hashtbl.create 64 in
  Array.iteri
    (fun u (key, pred) ->
      let no_overlap =
        match schema.(u) with
        | Some b -> b
        | None -> not nesting.(u)
      in
      let cvg =
        match cvg_b.(u) with
        | Some b when no_overlap && matched.(u) > 0 ->
          Some (Coverage_histogram.finish b ~populations)
        | Some _ | None -> None
      in
      let lvl =
        match lvl_b with
        | Some lb -> Some (Level_histogram.finish lb.(u))
        | None -> None
      in
      Hashtbl.add entries key
        { pred; hist = Position_histogram.finish hist_b.(u); no_overlap; cvg; lvl })
    uniq;
  {
    doc = None;
    grid;
    preds;
    entries;
    pop = Position_histogram.finish pop_b;
    with_levels;
    hist_cache = Hashtbl.create 8;
    lph_cache = Hashtbl.create 8;
    stats =
      Some
        {
          path = `Streamed;
          passes;
          predicate_evals = !evals;
          build_time = Unix.gettimeofday () -. t0;
        };
    maint = None;
  }

let build_stream_file ?grid_size ?grid_kind ?schema_no_overlap ?with_levels path
    preds =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let sax = Sax.of_channel ic in
  build_stream ?grid_size ?grid_kind ?schema_no_overlap ?with_levels
    (fun () -> Sax.next sax)
    preds

let stats t = t.stats

let grid t = t.grid
let document t = t.doc
let predicates t = t.preds
let population t = t.pop

let find t pred = Hashtbl.find_opt t.entries (Predicate.name pred)

(* --- Incremental maintenance ------------------------------------------ *)

(* The maintenance engine is created lazily on the first [apply]: one
   document-order sweep seeds its integer ground truth (coverage tables,
   nesting-pair and level counts), while the position histograms of the
   existing entries are adopted as live objects and mutated in place from
   then on.  This works for fused- and legacy-built summaries alike and
   leaves the construction paths — and the fused-vs-legacy bit-identity
   invariant — completely untouched. *)
let maint_state t =
  match t.maint with
  | Some st -> st
  | None -> (
    match t.doc with
    | None ->
      failwith
        "Summary.apply: no document is attached (summary loaded from disk?)"
    | Some doc ->
      let seen = Hashtbl.create 16 in
      let entries =
        List.filter_map
          (fun pred ->
            let key = Predicate.name pred in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.add seen key ();
              match Hashtbl.find_opt t.entries key with
              | Some e -> Some (pred, e.hist)
              | None -> None
            end)
          t.preds
      in
      let st =
        Apply.init ~grid:t.grid ~pop:t.pop ~with_levels:t.with_levels ~entries
          doc
      in
      t.maint <- Some st;
      st)

let staleness t = Option.map Apply.staleness t.maint

(* Full fused rebuild from the current document revision, swapped into
   the existing summary in place: the grid is re-derived with the same
   kind and size, so uniform grids regain dense position coverage after
   appends widened the position space. *)
let rebuild t =
  match t.doc with
  | None -> ()
  | Some doc ->
    let grid_kind = if Grid.is_uniform t.grid then `Uniform else `Equidepth in
    let s =
      build ~grid_size:t.grid.Grid.size ~grid_kind ~with_levels:t.with_levels
        doc t.preds
    in
    t.grid <- s.grid;
    t.pop <- s.pop;
    t.stats <- s.stats;
    Hashtbl.reset t.entries;
    Hashtbl.iter (Hashtbl.add t.entries) s.entries;
    Hashtbl.reset t.hist_cache;
    Hashtbl.reset t.lph_cache;
    t.maint <- None

let apply ?(policy = `Threshold 0.5) t updates =
  let st = maint_state t in
  List.iter (fun u -> ignore (Apply.apply_update st u)) updates;
  t.doc <- Some (Apply.document st);
  (* Regenerate the derived parts of every entry from the maintained
     ground truth.  The position histogram object is untouched (it was
     mutated in place); coverage and level
     histograms are rebuilt from exact counts through the same
     finalization the streaming builders use, and the no-overlap flag
     follows the exact nesting-pair count (schema overlap overrides from
     the original build are not preserved under maintenance). *)
  let populations = Apply.populations st in
  List.iter
    (fun r ->
      match Hashtbl.find_opt t.entries r.Apply.r_name with
      | None -> ()
      | Some e ->
        let no_overlap = r.Apply.r_no_overlap in
        let cvg =
          if no_overlap && r.Apply.r_count > 0 then
            Some
              (Coverage_histogram.of_parts ~grid:t.grid ~populations
                 ~entries:r.Apply.r_coverage)
          else None
        in
        let lvl =
          if t.with_levels then Some (Level_histogram.of_counts r.Apply.r_levels)
          else e.lvl
        in
        Hashtbl.replace t.entries r.Apply.r_name { e with no_overlap; cvg; lvl })
    (Apply.results st);
  (* On-demand histograms built from the pre-edit document are stale. *)
  Hashtbl.reset t.hist_cache;
  Hashtbl.reset t.lph_cache;
  if Staleness.needs_rebuild policy (Apply.staleness st) then rebuild t

(* Resolution order: base entry, then on-demand cache, then (for
   boolean combinations) compound estimation over resolved parts, and for
   unknown leaves a build from the document that is cached for reuse.
   The cache consulted (and filled) is an explicit argument so batch
   estimation can hand each domain its own scratch; [histogram] passes
   the summary's own. *)
let histogram_in hist_cache t pred =
  let lookup p =
    match find t p with
    | Some e -> Some e.hist
    | None -> Hashtbl.find_opt hist_cache (Predicate.name p)
  in
  (* A boolean combination is decomposed (per Sec. 3.4) only when all its
     non-boolean leaves are resolvable; otherwise the whole predicate is
     treated as a new base predicate and built from the document. *)
  let rec leaves_known p =
    match p with
    | Predicate.True -> true
    | Predicate.And (a, b) | Predicate.Or (a, b) -> leaves_known a && leaves_known b
    | Predicate.Not a -> leaves_known a
    | leaf -> lookup leaf <> None
  in
  let build_and_cache p =
    match t.doc with
    | None ->
      failwith
        (Printf.sprintf
           "Summary: predicate %s is not in the catalog and no document is \
            attached (summary loaded from disk?)"
           (Predicate.name p))
    | Some doc ->
      let h = Position_histogram.build doc ~grid:t.grid p in
      Hashtbl.replace hist_cache (Predicate.name p) h;
      h
  in
  let base p =
    match lookup p with
    | Some h -> Some h
    | None -> (
      match p with
      | Predicate.True -> None
      | Predicate.And _ | Predicate.Or _ | Predicate.Not _ ->
        if leaves_known p then None (* decompose *) else Some (build_and_cache p)
      | leaf -> Some (build_and_cache leaf))
  in
  Compound.estimate ~population:t.pop ~base pred

let histogram t pred = histogram_in t.hist_cache t pred

let coverage t pred =
  match find t pred with Some e -> e.cvg | None -> None

let level t pred =
  match (find t pred, t.doc) with
  | Some e, _ -> e.lvl
  | None, Some doc ->
    if t.with_levels then Some (Level_histogram.build doc pred) else None
  | None, None -> None

let has_no_overlap t pred =
  match find t pred with Some e -> e.no_overlap | None -> false

let node_count t pred = Position_histogram.total (histogram t pred)

(* Level-position histograms are built lazily per predicate and cached:
   they are only consulted under the Cell_level_scaled child mode.  As
   with [histogram_in], the cache is an explicit argument for the sake of
   domain-local scratch. *)
let position_levels_in lph_cache t pred =
  match t.doc with
  | None -> None
  | Some doc -> (
    let key = "lph:" ^ Predicate.name pred in
    match Hashtbl.find_opt lph_cache key with
    | Some lph -> Some lph
    | None ->
      let lph = Level_position_histogram.build doc ~grid:t.grid pred in
      Hashtbl.add lph_cache key lph;
      Some lph)

let catalog_in hist_cache lph_cache t =
  {
    Twig_estimator.hist = histogram_in hist_cache t;
    coverage = coverage t;
    level = level t;
    position_levels = position_levels_in lph_cache t;
  }

let catalog t = catalog_in t.hist_cache t.lph_cache t

let estimate ?options t pattern = Twig_estimator.estimate ?options (catalog t) pattern

(* Estimates are pure functions of the (read-only) summary state —
   on-demand histograms are deterministic — so
   fanning the workload across domains returns, in input order, exactly
   the floats [List.map (estimate t)] would: the differential QCheck
   suite pins this bit for bit.  Each domain gets two fresh caches for
   on-demand histograms, so nothing shared is written; scratch work is
   not written back. *)
let estimate_batch ?options ?(domains = 1) t patterns =
  match patterns with
  | [] -> []
  | _ when domains <= 1 -> List.map (estimate ?options t) patterns
  | _ ->
    let pats = Array.of_list patterns in
    let chunks = Chunking.ranges ~n:(Array.length pats) ~count:domains in
    let ntasks = Array.length chunks in
    let views =
      Array.init ntasks (fun _ -> (Hashtbl.create 8, Hashtbl.create 8))
    in
    let per_chunk =
      (* lint: allow domain-escape — summary is read-only; views are per-task *)
      Pool.run ~domains ~tasks:ntasks (fun k ->
          let { Chunking.lo; hi } = chunks.(k) in
          let hist_cache, lph_cache = views.(k) in
          let cat = catalog_in hist_cache lph_cache t in
          Array.init (hi - lo) (fun i ->
              Twig_estimator.estimate ?options cat pats.(lo + i)))
    in
    List.concat_map Array.to_list (Array.to_list per_chunk)

let explain ?options t pattern =
  Twig_estimator.estimate_trace ?options (catalog t) pattern

let estimate_string ?options t query =
  estimate ?options t (Pattern_parser.pattern_exn query)

(* Static analysis before estimation: with the document at hand its tag
   list is the complete schema (an absent tag proves a 0 answer); a loaded
   summary only knows the tags its catalog predicates pin, so absence is a
   warning, not a proof. *)
let check t pattern =
  match t.doc with
  | Some doc ->
    Pattern_check.check ~known_tags:(Document.distinct_tags doc)
      ~tags_exhaustive:true pattern
  | None ->
    let tags = List.filter_map Predicate.tag_of t.preds in
    Pattern_check.check ~known_tags:tags ~tags_exhaustive:false pattern

let estimate_checked ?options t pattern =
  let diags = check t pattern in
  if Pattern_check.unsatisfiable diags then (0.0, diags)
  else (estimate ?options t pattern, diags)

let storage_bytes t =
  Hashtbl.fold
    (fun _ e acc ->
      acc
      + Position_histogram.storage_bytes e.hist
      + (match e.cvg with Some c -> Coverage_histogram.storage_bytes c | None -> 0)
      + match e.lvl with Some l -> Level_histogram.storage_bytes l | None -> 0)
    t.entries 0

let pp_stats ppf t =
  Format.fprintf ppf "%-32s %10s %12s %8s@." "predicate" "count" "overlap"
    "bytes";
  List.iter
    (fun pred ->
      match find t pred with
      | None -> ()
      | Some e ->
        let bytes =
          Position_histogram.storage_bytes e.hist
          + match e.cvg with Some c -> Coverage_histogram.storage_bytes c | None -> 0
        in
        Format.fprintf ppf "%-32s %10.0f %12s %8d@." (Predicate.name pred)
          (Position_histogram.total e.hist)
          (if e.no_overlap then "no overlap" else "overlap")
          bytes)
    t.preds

(* --- Persistence ------------------------------------------------------ *)

(* Line-oriented text format, one summary per file:

   xmlest-summary 1
   grid (uniform <size> <max_pos> | boundaries <size> <max_pos> <b1..b_{g-1}>)
   population <n>        followed by n lines "i j count"
   predicates <k>        followed by k blocks:
     predicate <0|1 no-overlap> <predicate s-expression>
     hist <n>            followed by n lines "i j count"
     coverage (none | <n>)   n lines "covered covering fraction"
     level (none | <m> <c0> ... <c_{m-1}>)
   end *)

let version_line = "xmlest-summary 1"

let output_hist buf h =
  let cells = ref [] in
  Position_histogram.iter_nonzero h (fun ~i ~j v -> cells := (i, j, v) :: !cells);
  let cells = List.rev !cells in
  Buffer.add_string buf (Printf.sprintf "%d\n" (List.length cells));
  List.iter
    (fun (i, j, v) -> Buffer.add_string buf (Printf.sprintf "%d %d %.17g\n" i j v))
    cells

let to_string t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (version_line ^ "\n");
  let g = t.grid in
  (if Grid.is_uniform g then
     Buffer.add_string buf
       (Printf.sprintf "grid uniform %d %d\n" g.Grid.size g.Grid.max_pos)
   else begin
     Buffer.add_string buf
       (Printf.sprintf "grid boundaries %d %d" g.Grid.size g.Grid.max_pos);
     for i = 1 to g.Grid.size - 1 do
       Buffer.add_string buf (Printf.sprintf " %d" g.Grid.boundaries.(i))
     done;
     Buffer.add_string buf "\n"
   end);
  Buffer.add_string buf "population ";
  output_hist buf t.pop;
  Buffer.add_string buf (Printf.sprintf "predicates %d\n" (List.length t.preds));
  List.iter
    (fun pred ->
      match find t pred with
      | None -> ()
      | Some e ->
        Buffer.add_string buf
          (Printf.sprintf "predicate %d %s\n"
             (if e.no_overlap then 1 else 0)
             (Predicate.to_syntax e.pred));
        Buffer.add_string buf "hist ";
        output_hist buf e.hist;
        (match e.cvg with
        | None -> Buffer.add_string buf "coverage none\n"
        | Some cvg ->
          let entries =
            Coverage_histogram.fold_entries cvg ~init:[]
              ~f:(fun acc ~covered ~covering frac -> (covered, covering, frac) :: acc)
          in
          let entries = List.rev entries in
          Buffer.add_string buf (Printf.sprintf "coverage %d\n" (List.length entries));
          List.iter
            (fun (covered, covering, frac) ->
              Buffer.add_string buf
                (Printf.sprintf "%d %d %.17g\n" covered covering frac))
            entries);
        (match e.lvl with
        | None -> Buffer.add_string buf "level none\n"
        | Some lvl ->
          let counts = Level_histogram.counts lvl in
          Buffer.add_string buf (Printf.sprintf "level %d" (Array.length counts));
          Array.iter
            (fun c -> Buffer.add_string buf (Printf.sprintf " %.17g" c))
            counts;
          Buffer.add_string buf "\n"))
    t.preds;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

exception Bad_summary of string

let of_string input =
  let lines = String.split_on_char '\n' input in
  let lines = ref lines in
  let fail msg = raise (Bad_summary msg) in
  let next () =
    match !lines with
    | [] -> fail "unexpected end of input"
    | l :: rest ->
      lines := rest;
      l
  in
  let words l = String.split_on_char ' ' l |> List.filter (fun w -> w <> "") in
  let int_of w = try int_of_string w with Failure _ -> fail ("bad integer " ^ w) in
  let float_of w = try float_of_string w with Failure _ -> fail ("bad number " ^ w) in
  try
    if not (String.equal (next ()) version_line) then
      fail "not an xmlest summary (bad header)";
    let grid =
      match words (next ()) with
      | [ "grid"; "uniform"; size; max_pos ] ->
        Grid.create ~size:(int_of size) ~max_pos:(int_of max_pos)
      | "grid" :: "boundaries" :: size :: max_pos :: inner ->
        let size = int_of size and max_pos = int_of max_pos in
        if not (Int.equal (List.length inner) (size - 1)) then
          fail "boundary count mismatch";
        let inner = List.map int_of inner in
        let boundaries = Array.of_list ((0 :: inner) @ [ max_pos + 1 ]) in
        (try Grid.of_boundaries boundaries
         with Invalid_argument msg -> fail msg)
      | _ -> fail "expected a grid line"
    in
    let read_hist_body n =
      let h = Position_histogram.create_empty grid in
      for _ = 1 to n do
        match words (next ()) with
        | [ i; j; v ] ->
          Position_histogram.add h ~i:(int_of i) ~j:(int_of j) (float_of v)
        | _ -> fail "bad histogram cell line"
      done;
      h
    in
    let pop =
      match words (next ()) with
      | [ "population"; n ] -> read_hist_body (int_of n)
      | _ -> fail "expected population section"
    in
    let n_preds =
      match words (next ()) with
      | [ "predicates"; k ] -> int_of k
      | _ -> fail "expected predicates section"
    in
    let entries = Hashtbl.create 16 in
    let preds = ref [] in
    let with_levels = ref false in
    for _ = 1 to n_preds do
      let no_overlap, pred =
        let line = next () in
        match words line with
        | "predicate" :: flag :: _ ->
          let sexp_start =
            (* the s-expression is everything after "predicate <flag> " *)
            let prefix = "predicate " ^ flag ^ " " in
            if String.length line < String.length prefix then fail "bad predicate line"
            else String.sub line (String.length prefix)
                   (String.length line - String.length prefix)
          in
          let pred =
            match Predicate.of_syntax sexp_start with
            | Ok p -> p
            | Error e -> fail ("bad predicate: " ^ e)
          in
          (int_of flag = 1, pred)
        | _ -> fail "expected a predicate line"
      in
      let hist =
        match words (next ()) with
        | [ "hist"; n ] -> read_hist_body (int_of n)
        | _ -> fail "expected hist section"
      in
      let cvg =
        match words (next ()) with
        | [ "coverage"; "none" ] -> None
        | [ "coverage"; n ] ->
          let entries = ref [] in
          for _ = 1 to int_of n do
            match words (next ()) with
            | [ covered; covering; frac ] ->
              entries := (int_of covered, int_of covering, float_of frac) :: !entries
            | _ -> fail "bad coverage line"
          done;
          let populations = Array.make (Grid.cells grid) 0.0 in
          Position_histogram.iter_nonzero pop (fun ~i ~j v ->
              populations.(Grid.index grid ~i ~j) <- v);
          Some
            (Coverage_histogram.of_parts ~grid ~populations
               ~entries:(List.rev !entries))
        | _ -> fail "expected coverage section"
      in
      let lvl =
        match words (next ()) with
        | [ "level"; "none" ] -> None
        | "level" :: m :: counts ->
          if not (Int.equal (List.length counts) (int_of m)) then
            fail "level count mismatch";
          with_levels := true;
          Some (Level_histogram.of_counts (Array.of_list (List.map float_of counts)))
        | _ -> fail "expected level section"
      in
      let key = Predicate.name pred in
      Hashtbl.replace entries key { pred; hist; no_overlap; cvg; lvl };
      preds := pred :: !preds
    done;
    (match words (next ()) with
    | [ "end" ] -> ()
    | _ -> fail "expected end marker");
    Ok
      {
        doc = None;
        grid;
        preds = List.rev !preds;
        entries;
        pop;
        with_levels = !with_levels;
        hist_cache = Hashtbl.create 8;
        lph_cache = Hashtbl.create 8;
        stats = None;
        maint = None;
      }
  with
  | Bad_summary msg -> Error msg
  | Invalid_argument msg -> Error msg

let save t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (to_string t);
      (* flush inside the body so write errors surface as the primary
         exception, with the descriptor still released by the finally *)
      flush oc)

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> of_string (really_input_string ic (in_channel_length ic)))

(* --- The binary (.xsum) store ------------------------------------------ *)

(* [Store] only moves flat float vectors; the translation to and from live
   histograms happens here, where the entry record is in scope.  Dense
   cell vectors are rebuilt through the public query surface
   ([iter_nonzero], [fold_entries], [total_coverage]) so the store never
   depends on histogram internals; every float is copied bit-exactly, and
   the stored totals let [load_store] skip the cell folds. *)

let dense_cells grid h =
  let cells = Array.make (Grid.cells grid) 0.0 in
  Position_histogram.iter_nonzero h (fun ~i ~j v ->
      cells.(Grid.index grid ~i ~j) <- v);
  F64.of_array cells

let hist_view grid h =
  { Store.h_total = Position_histogram.total h; h_cells = dense_cells grid h }

let cvg_view grid cvg =
  let cells = Grid.cells grid in
  let g = grid.Grid.size in
  let entries =
    List.rev
      (Coverage_histogram.fold_entries cvg ~init:[]
         ~f:(fun acc ~covered ~covering frac -> (covered, covering, frac) :: acc))
  in
  let row_off = Array.make (cells + 1) 0 in
  List.iter (fun (covered, _, _) -> row_off.(covered + 1) <- row_off.(covered + 1) + 1) entries;
  for c = 0 to cells - 1 do
    row_off.(c + 1) <- row_off.(c + 1) + row_off.(c)
  done;
  let data = Array.make (2 * row_off.(cells)) 0.0 in
  List.iteri
    (fun k (_, covering, frac) ->
      data.(2 * k) <- float_of_int covering;
      data.((2 * k) + 1) <- frac)
    entries;
  let total_cvg = Array.make cells 0.0 in
  for k = 0 to cells - 1 do
    total_cvg.(k) <- Coverage_histogram.total_coverage cvg ~i:(k / g) ~j:(k mod g)
  done;
  {
    Store.c_entries = row_off.(cells);
    c_offsets = F64.of_array (Array.map float_of_int row_off);
    c_data = F64.of_array data;
    c_populations = F64.of_array (Coverage_histogram.populations cvg);
    c_total_cvg = F64.of_array total_cvg;
  }

let save_store t path =
  let blocks =
    List.filter_map
      (fun pred ->
        Option.map
          (fun e ->
            {
              Store.b_syntax = Predicate.to_syntax e.pred;
              b_no_overlap = e.no_overlap;
              b_hist = hist_view t.grid e.hist;
              b_cvg = Option.map (cvg_view t.grid) e.cvg;
              b_lvl =
                Option.map
                  (fun lvl -> F64.of_array (Level_histogram.counts lvl))
                  e.lvl;
            })
          (find t pred))
      t.preds
  in
  Store.write path ~grid:t.grid ~population:(hist_view t.grid t.pop) ~blocks

let load_store path =
  (* lint: allow resource-leak — Store.open_in closes its fd after mmap *)
  match Store.open_in path with
  | Error e -> Error e
  | Ok s -> (
    try
      let grid = s.Store.s_grid in
      let hist_of (v : Store.hist_view) =
        Position_histogram.of_bigarray ~grid ~total:v.Store.h_total
          v.Store.h_cells
      in
      let entries = Hashtbl.create 16 in
      let preds = ref [] in
      let with_levels = ref false in
      List.iter
        (fun b ->
          let pred =
            match Predicate.of_syntax b.Store.b_syntax with
            | Ok p -> p
            | Error e -> raise (Bad_summary ("bad predicate: " ^ e))
          in
          let cvg =
            Option.map
              (fun c ->
                Coverage_histogram.of_csr_mapped ~grid
                  ~offsets:c.Store.c_offsets ~data:c.Store.c_data
                  ~populations:c.Store.c_populations
                  ~total_cvg:c.Store.c_total_cvg)
              b.Store.b_cvg
          in
          let lvl = Option.map Level_histogram.of_bigarray b.Store.b_lvl in
          if Option.is_some lvl then with_levels := true;
          Hashtbl.replace entries (Predicate.name pred)
            {
              pred;
              hist = hist_of b.Store.b_hist;
              no_overlap = b.Store.b_no_overlap;
              cvg;
              lvl;
            };
          preds := pred :: !preds)
        s.Store.s_blocks;
      Ok
        {
          doc = None;
          grid;
          preds = List.rev !preds;
          entries;
          pop = hist_of s.Store.s_population;
          with_levels = !with_levels;
          hist_cache = Hashtbl.create 8;
          lph_cache = Hashtbl.create 8;
          stats = None;
          maint = None;
        }
    with
    | Bad_summary msg -> Error msg
    | Invalid_argument msg -> Error msg)
