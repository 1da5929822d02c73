open Xmlest_xmldb
open Xmlest_query
open Xmlest_histogram

(* Per-predicate maintained statistics.  [hist] is the very object the
   summary entry holds, mutated in place via [Position_histogram.add], so
   estimates see every edit without a copy.  Everything else
   is integer ground truth from which the derived histograms (coverage
   fractions, trimmed level counts, no-overlap flag) are regenerated
   after each apply batch. *)
type pred_state = {
  pred : Predicate.t;
  name : string;
  hist : Position_histogram.t;
  mutable compiled : Predicate.compiled;
  mutable levels : float array;  (* index = level; grows on demand *)
  cvg : (int * int, int) Hashtbl.t;
      (* (covered cell, covering cell) -> covered-node count *)
  mutable pairs : int;  (* nesting (ancestor, descendant) matching pairs *)
  mutable count : int;  (* matching nodes *)
  drift : Staleness.counters;
}

type t = {
  mutable doc : Document.t;
  grid : Grid.t;
  preds : pred_state array;
  pop : Position_histogram.t;  (* shared with the summary *)
  pop_counts : int array;  (* dense per-cell node counts (all nodes) *)
  with_levels : bool;
  mutable updates : int;
}

type outcome = { exact : bool; nodes_touched : int; drift_added : float }

let document t = t.doc
let update_count t = t.updates

(* --- small helpers ----------------------------------------------------- *)

let cell_ij t doc v =
  Grid.cell_of_node t.grid
    ~start_pos:(Document.start_pos doc v)
    ~end_pos:(Document.end_pos doc v)

let cell_idx t doc v =
  let i, j = cell_ij t doc v in
  Grid.index t.grid ~i ~j

let tbl_add tbl key d =
  let cur = match Hashtbl.find_opt tbl key with Some c -> c | None -> 0 in
  let nv = cur + d in
  if nv = 0 then Hashtbl.remove tbl key else Hashtbl.replace tbl key nv

let level_add ps l d =
  if l >= Array.length ps.levels then begin
    let n = ref (Int.max 8 (2 * Array.length ps.levels)) in
    while l >= !n do
      n := 2 * !n
    done;
    let bigger = Array.make !n 0.0 in
    Array.blit ps.levels 0 bigger 0 (Array.length ps.levels);
    ps.levels <- bigger
  end;
  ps.levels.(l) <- ps.levels.(l) +. d

let hist_add ps ~i ~j d = Position_histogram.add ps.hist ~i ~j d

(* Nearest strict ancestor of [v] matching [ps], by parent-chain walk
   ([-1] when none).  Ancestor chains never cross an edit's splice point
   for surviving nodes, so the walk is valid on whichever document
   revision the caller holds. *)
let nearest_anc ps doc v =
  let rec go u = if u < 0 then -1 else if ps.compiled u then u else go (Document.parent doc u) in
  go (Document.parent doc v)

(* Number of matching strict ancestors of [v] — the nesting pairs [v]
   participates in as the descendant endpoint. *)
let anc_matches ps doc v =
  let rec go u acc =
    if u < 0 then acc else go (Document.parent doc u) (if ps.compiled u then acc + 1 else acc)
  in
  go (Document.parent doc v) 0

let recompile t =
  Array.iter (fun ps -> ps.compiled <- Predicate.compile t.doc ps.pred) t.preds

(* --- initial sweep ----------------------------------------------------- *)

(* One document-order pass seeds every maintained counter from scratch:
   per-cell populations, matching counts and level counts, the
   (covered, covering) coverage table via the same nearest-strict-ancestor
   interval streams the fused builder uses, and exact nesting-pair counts
   via a per-predicate stack of open matching ancestors.  The position
   histograms are NOT touched — the caller passes the already-correct
   objects from the freshly built summary. *)
let init ~grid ~pop ~with_levels ~entries doc =
  let preds =
    Array.of_list
      (List.map
         (fun (pred, hist) ->
           {
             pred;
             name = Predicate.name pred;
             hist;
             compiled = Predicate.compile doc pred;
             levels = Array.make 8 0.0;
             cvg = Hashtbl.create 64;
             pairs = 0;
             count = 0;
             drift = Staleness.fresh ();
           })
         entries)
  in
  let t =
    {
      doc;
      grid;
      preds;
      pop;
      pop_counts = Array.make (Grid.cells grid) 0;
      with_levels;
      updates = 0;
    }
  in
  let p = Array.length preds in
  let n = Document.size doc in
  let disp = Predicate.dispatch doc (List.map fst entries) in
  let streams = Array.init (Int.max p 1) (fun _ -> Interval_ops.stream doc) in
  (* Open matching ancestors per predicate, as a stack of end positions. *)
  let stack_ends = Array.init (Int.max p 1) (fun _ -> ref [||]) in
  let stack_len = Array.make (Int.max p 1) 0 in
  let push u e =
    let arr = !(stack_ends.(u)) in
    let arr =
      if stack_len.(u) >= Array.length arr then begin
        let bigger = Array.make (Int.max 8 (2 * Array.length arr)) 0 in
        Array.blit arr 0 bigger 0 (Array.length arr);
        stack_ends.(u) <- ref bigger;
        bigger
      end
      else arr
    in
    arr.(stack_len.(u)) <- e;
    stack_len.(u) <- stack_len.(u) + 1
  in
  let matched = Array.make (Int.max p 1) false in
  let matched_list = Array.make (Int.max p 1) 0 in
  let node_cell = Array.make (Int.max n 1) 0 in
  for v = 0 to n - 1 do
    let c = cell_idx t doc v in
    node_cell.(v) <- c;
    t.pop_counts.(c) <- t.pop_counts.(c) + 1;
    let nmatched = ref 0 in
    Predicate.dispatch_node disp doc v ~f:(fun u ->
        matched.(u) <- true;
        matched_list.(!nmatched) <- u;
        incr nmatched);
    let sv = Document.start_pos doc v in
    for u = 0 to p - 1 do
      let ps = preds.(u) in
      let in_set = matched.(u) in
      let nearest = Interval_ops.feed streams.(u) v ~in_set in
      if nearest >= 0 then tbl_add ps.cvg (c, node_cell.(nearest)) 1;
      (* Close matching ancestors whose interval ended before [v]. *)
      let arr = !(stack_ends.(u)) in
      while stack_len.(u) > 0 && arr.(stack_len.(u) - 1) < sv do
        stack_len.(u) <- stack_len.(u) - 1
      done;
      if in_set then begin
        ps.pairs <- ps.pairs + stack_len.(u);
        push u (Document.end_pos doc v);
        ps.count <- ps.count + 1;
        if with_levels then level_add ps (Document.level doc v) 1.0
      end
    done;
    for k = 0 to !nmatched - 1 do
      matched.(matched_list.(k)) <- false
    done
  done;
  t

(* --- deletions (always exact) ------------------------------------------ *)

(* Subtree deletion is label-preserving, so survivors keep their cells and
   their ancestor chains (an ancestor of a survivor cannot sit inside the
   deleted subtree).  Every removed coverage contribution has its covered
   node inside the subtree, and every removed nesting pair has its
   descendant endpoint there, so one sweep over the doomed range settles
   all statistics exactly. *)
let apply_delete t v =
  let doc = t.doc in
  let n = Document.size doc in
  if v <= 0 || v >= n then
    invalid_arg "Apply: delete node is the root or out of range";
  let last = Document.subtree_last doc v in
  let k = last - v + 1 in
  for d = v to last do
    let i, j = cell_ij t doc d in
    let c = Grid.index t.grid ~i ~j in
    t.pop_counts.(c) <- t.pop_counts.(c) - 1;
    Position_histogram.add t.pop ~i ~j (-1.0);
    Array.iter
      (fun ps ->
        let na = nearest_anc ps doc d in
        if na >= 0 then tbl_add ps.cvg (c, cell_idx t doc na) (-1);
        if ps.compiled d then begin
          hist_add ps ~i ~j (-1.0);
          ps.count <- ps.count - 1;
          if t.with_levels then level_add ps (Document.level doc d) (-1.0);
          ps.pairs <- ps.pairs - anc_matches ps doc d;
          ps.drift.Staleness.nodes_touched <- ps.drift.Staleness.nodes_touched + 1
        end)
      t.preds
  done;
  t.doc <- Document.delete_subtree doc v;
  recompile t;
  { exact = true; nodes_touched = k; drift_added = 0.0 }

(* --- insertions -------------------------------------------------------- *)

(* Feed the freshly inserted nodes [root .. root + k - 1] of the
   post-edit document: their cells, counts, levels, nesting pairs and
   coverage entries are all computed from true positions, so this step is
   exact for appends and interior inserts alike (a same-grid rebuild
   buckets the new nodes identically, via the clamped [Grid.cell_of_node]). *)
let feed_new_nodes t root k =
  let doc = t.doc in
  for w = root to root + k - 1 do
    let i, j = cell_ij t doc w in
    let c = Grid.index t.grid ~i ~j in
    t.pop_counts.(c) <- t.pop_counts.(c) + 1;
    Position_histogram.add t.pop ~i ~j 1.0;
    Array.iter
      (fun ps ->
        let na = nearest_anc ps doc w in
        if na >= 0 then tbl_add ps.cvg (c, cell_idx t doc na) 1;
        if ps.compiled w then begin
          hist_add ps ~i ~j 1.0;
          ps.count <- ps.count + 1;
          if t.with_levels then level_add ps (Document.level doc w) 1.0;
          ps.pairs <- ps.pairs + anc_matches ps doc w;
          ps.drift.Staleness.nodes_touched <- ps.drift.Staleness.nodes_touched + 1
        end)
      t.preds
  done

(* Exact append path.  Appending at the very end of the document shifts
   only the end positions of the parent's ancestor-or-self chain (every
   other node's interval lies strictly before the locus), so the fixup is
   confined to chain nodes whose end bucket actually changed: move their
   population and histogram mass, their covered-side coverage entry, and —
   when the node itself matches a predicate — the coverage entries it
   covers, by resweeping its old subtree.  Cells are read from the chain
   map pre-edit and from the document post-edit. *)
let apply_append t ~parent ~index subtree =
  let doc = t.doc in
  (* Ancestor-or-self chain of [parent] with pre-edit cells; indices below
     the splice point are stable across the edit. *)
  let chain = Hashtbl.create 8 in
  let rec collect u =
    if u >= 0 then begin
      Hashtbl.replace chain u (cell_ij t doc u);
      collect (Document.parent doc u)
    end
  in
  collect parent;
  let doc', root = Document.insert_subtree doc ~parent ~index subtree in
  let k = Document.subtree_size doc' root in
  t.doc <- doc';
  recompile t;
  let old_ij w =
    match Hashtbl.find_opt chain w with Some ij -> ij | None -> cell_ij t doc' w
  in
  let new_ij w = cell_ij t doc' w in
  let idx (i, j) = Grid.index t.grid ~i ~j in
  let moved =
    Hashtbl.fold
      (fun a (oi, oj) acc ->
        let ni, nj = new_ij a in
        if Int.equal oi ni && Int.equal oj nj then acc
        else (a, (oi, oj), (ni, nj)) :: acc)
      chain []
  in
  let moved_tbl = Hashtbl.create 8 in
  List.iter (fun (a, _, _) -> Hashtbl.replace moved_tbl a ()) moved;
  List.iter
    (fun (a, (oi, oj), (ni, nj)) ->
      let oc = Grid.index t.grid ~i:oi ~j:oj in
      let nc = Grid.index t.grid ~i:ni ~j:nj in
      t.pop_counts.(oc) <- t.pop_counts.(oc) - 1;
      t.pop_counts.(nc) <- t.pop_counts.(nc) + 1;
      Position_histogram.add t.pop ~i:oi ~j:oj (-1.0);
      Position_histogram.add t.pop ~i:ni ~j:nj 1.0;
      Array.iter
        (fun ps ->
          (* Covered side: [a]'s own coverage entry moves with its cell
             (and with its covering ancestor's cell, itself possibly a
             moved chain node). *)
          (let na = nearest_anc ps doc' a in
           if na >= 0 then begin
             tbl_add ps.cvg (oc, idx (old_ij na)) (-1);
             tbl_add ps.cvg (nc, idx (new_ij na)) 1
           end);
          if ps.compiled a then begin
            hist_add ps ~i:oi ~j:oj (-1.0);
            hist_add ps ~i:ni ~j:nj 1.0;
            ps.drift.Staleness.nodes_touched <- ps.drift.Staleness.nodes_touched + 1;
            (* Covering side: descendants of [a] whose nearest matching
               ancestor is [a] still point at its old cell.  Only *moved*
               chain nodes are skipped (their covered-side handler above
               already re-keyed both sides of their entry); a chain node
               whose end shifted within its bucket kept its cell but still
               needs the covering side re-keyed.  New nodes are fed
               afterwards. *)
            for w = a + 1 to Document.subtree_last doc' a do
              if (w < root || w >= root + k) && not (Hashtbl.mem moved_tbl w)
              then
                if Int.equal (nearest_anc ps doc' w) a then begin
                  let cw = idx (new_ij w) in
                  tbl_add ps.cvg (cw, oc) (-1);
                  tbl_add ps.cvg (cw, nc) 1
                end
            done
          end)
        t.preds)
    moved;
  feed_new_nodes t root k;
  {
    exact = true;
    nodes_touched = k + List.length moved;
    drift_added = 0.0;
  }

(* Approximate interior-insert path: survivors whose positions shifted
   keep their stale cells; the sound drift bound charges, per predicate,
   the full histogram mass of cells whose end bucket is at or after the
   locus bucket — a superset of the nodes whose end position moved.  New
   nodes are still fed exactly. *)
let apply_interior t ~parent ~index subtree =
  let doc', root = Document.insert_subtree t.doc ~parent ~index subtree in
  let locus = Document.start_pos doc' root in
  let jb = Grid.bucket t.grid (Int.min locus t.grid.Grid.max_pos) in
  let g = t.grid.Grid.size in
  let drift = ref 0.0 in
  Array.iter
    (fun ps ->
      let mass = ref 0.0 in
      for j = jb to g - 1 do
        for i = 0 to j do
          mass := !mass +. Position_histogram.get ps.hist ~i ~j
        done
      done;
      ps.drift.Staleness.drift_mass <- ps.drift.Staleness.drift_mass +. !mass;
      drift := !drift +. !mass)
    t.preds;
  t.doc <- doc';
  recompile t;
  let k = Document.subtree_size doc' root in
  feed_new_nodes t root k;
  { exact = false; nodes_touched = k; drift_added = !drift }

let apply_insert t ~parent ~index subtree =
  let doc = t.doc in
  let n = Document.size doc in
  if parent < 0 || parent >= n then
    invalid_arg "Apply: insert parent out of range";
  let nkids = List.length (Document.children doc parent) in
  let appends =
    (index < 0 || index >= nkids)
    && Int.equal (Document.subtree_last doc parent) (n - 1)
  in
  if appends then apply_append t ~parent ~index subtree
  else apply_interior t ~parent ~index subtree

(* --- in-place replacements (always exact) ------------------------------ *)

(* Positions are untouched; only the matched set of the edited node can
   flip, per predicate.  A flip moves one unit of histogram/level/count
   mass at the node's own cell, adds or removes the nesting pairs the node
   participates in (matching ancestors + matching descendants), and
   rewires the coverage entries of exactly those descendants whose
   nearest-matching-ancestor walk reaches [v] before any other match. *)
let apply_replace t v edit =
  let doc = t.doc in
  let n = Document.size doc in
  if v < 0 || v >= n then invalid_arg "Apply: replace node out of range";
  let before = Array.map (fun ps -> ps.compiled v) t.preds in
  let doc' =
    match edit with
    | `Text text -> Document.replace_text doc v text
    | `Attrs attrs -> Document.replace_attrs doc v attrs
  in
  t.doc <- doc';
  recompile t;
  let i, j = cell_ij t doc' v in
  let cv = Grid.index t.grid ~i ~j in
  let touched = ref 0 in
  Array.iteri
    (fun u ps ->
      let after = ps.compiled v in
      if not (Bool.equal before.(u) after) then begin
        incr touched;
        let d = if after then 1 else -1 in
        hist_add ps ~i ~j (float_of_int d);
        ps.count <- ps.count + d;
        if t.with_levels then
          level_add ps (Document.level doc' v) (float_of_int d);
        ps.drift.Staleness.nodes_touched <- ps.drift.Staleness.nodes_touched + 1;
        (* Nesting pairs with [v] as descendant, then as ancestor. *)
        let desc = ref 0 in
        for w = v + 1 to Document.subtree_last doc' v do
          if ps.compiled w then incr desc
        done;
        ps.pairs <- (ps.pairs + (d * (anc_matches ps doc' v + !desc)));
        (* Coverage: descendants whose nearest matching ancestor walk hits
           [v] first switch between [v] and [v]'s own nearest match. *)
        let na_v = nearest_anc ps doc' v in
        let na_v_cell = if na_v >= 0 then cell_idx t doc' na_v else -1 in
        for w = v + 1 to Document.subtree_last doc' v do
          (* Walk up from [w]; stop at the first matching node or at [v]. *)
          let rec hits_v u =
            if u < 0 then false
            else if Int.equal u v then true
            else if ps.compiled u then false
            else hits_v (Document.parent doc' u)
          in
          if hits_v (Document.parent doc' w) then begin
            let cw = cell_idx t doc' w in
            if after then begin
              if na_v_cell >= 0 then tbl_add ps.cvg (cw, na_v_cell) (-1);
              tbl_add ps.cvg (cw, cv) 1
            end
            else begin
              tbl_add ps.cvg (cw, cv) (-1);
              if na_v_cell >= 0 then tbl_add ps.cvg (cw, na_v_cell) 1
            end
          end
        done
      end)
    t.preds;
  { exact = true; nodes_touched = 1; drift_added = 0.0 }

let apply_update t u =
  t.updates <- t.updates + 1;
  match u with
  | Update.Delete { node } -> apply_delete t node
  | Update.Insert { parent; index; subtree } -> apply_insert t ~parent ~index subtree
  | Update.Replace_text { node; text } -> apply_replace t node (`Text text)
  | Update.Replace_attrs { node; attrs } -> apply_replace t node (`Attrs attrs)

(* --- regeneration views ------------------------------------------------ *)

let populations t = Array.map float_of_int t.pop_counts

type pred_result = {
  r_pred : Predicate.t;
  r_name : string;
  r_count : int;
  r_no_overlap : bool;
  r_coverage : (int * int * float) list;
  r_levels : float array;
}

let results t =
  let pops = populations t in
  Array.to_list
    (Array.map
       (fun ps ->
         let entries =
           Hashtbl.fold
             (fun (covered, covering) cnt acc ->
               if cnt > 0 then
                 (covered, covering, float_of_int cnt /. pops.(covered)) :: acc
               else acc)
             ps.cvg []
         in
         (* Trim level counts exactly as [Level_histogram.finish] does:
            down to the last populated level, one zero entry when empty. *)
         let last = ref (-1) in
         Array.iteri
           (fun l c -> if not (Float.equal c 0.0) then last := l)
           ps.levels;
         let levels = Array.sub ps.levels 0 (Int.max 1 (!last + 1)) in
         {
           r_pred = ps.pred;
           r_name = ps.name;
           r_count = ps.count;
           r_no_overlap = Int.equal ps.pairs 0;
           r_coverage = entries;
           r_levels = levels;
         })
       t.preds)

let staleness t =
  let live_mass =
    Array.fold_left
      (fun acc ps -> acc +. Position_histogram.total ps.hist)
      0.0 t.preds
  in
  Staleness.make_report ~updates_since_build:t.updates ~live_mass
    ~per_predicate:
      (Array.to_list (Array.map (fun ps -> (ps.name, ps.drift)) t.preds))
