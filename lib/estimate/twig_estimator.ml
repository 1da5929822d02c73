open Xmlest_histogram
open Xmlest_query

type catalog = {
  hist : Predicate.t -> Position_histogram.t;
  coverage : Predicate.t -> Coverage_histogram.t option;
  level : Predicate.t -> Level_histogram.t option;
  position_levels : Predicate.t -> Level_position_histogram.t option;
}

type child_mode = As_descendant | Level_scaled | Cell_level_scaled

type options = {
  direction : Ph_join.direction;
  use_no_overlap : bool;
  child_mode : child_mode;
}

let default_options =
  {
    direction = Ph_join.Ancestor_based;
    use_no_overlap = true;
    child_mode = As_descendant;
  }

(* A view of a partially-assembled sub-twig, keyed at its root node. *)
type view = {
  part : Position_histogram.t;  (* participating-node estimate per cell *)
  jn : float array option;
      (* join factor per cell (dense row-major); [None] when it is 1
         everywhere, as for leaves and after overlap joins *)
  raw : Position_histogram.t;  (* untouched predicate histogram, for
                                  coverage participation scaling *)
}

let idx g i j = (i * g) + j

let join_factor v g i j = match v.jn with None -> 1.0 | Some jn -> jn.(idx g i j)

(* part × jn, the per-cell expected match count.  With unit join factors
   that is [part] itself: no O(g²) copy.  Views never mutate their
   histograms, so a leaf can share the summary's. *)
let weighted v =
  match v.jn with
  | None -> v.part
  | Some jn ->
    let grid = Position_histogram.grid v.part in
    let g = grid.Grid.size in
    let out = Position_histogram.create_empty grid in
    Position_histogram.iter_nonzero v.part (fun ~i ~j count ->
        let w = count *. jn.(idx g i j) in
        if not (Float.equal w 0.0) then Position_histogram.add out ~i ~j w);
    out

let leaf_view hist = { part = hist; jn = None; raw = hist }

(* x × 1.0 = x exactly, so a unit factor needs no scaled copy. *)
let scale h factor =
  if Float.equal factor 1.0 then h else Position_histogram.scale h factor

(* Σ_{i <= m <= n <= j} h[m][n]: the descendant band of each cell,
   Fig. 10's M[i][j].  O(g²) by the recurrence T[i][j] = T[i+1][j] +
   (row-i prefix from i to j). *)
let band_sums h =
  let grid = Position_histogram.grid h in
  let g = grid.Grid.size in
  let t = Array.make (g * g) 0.0 in
  for i = g - 1 downto 0 do
    let row_prefix = ref 0.0 in
    for j = i to g - 1 do
      row_prefix := !row_prefix +. Position_histogram.get h ~i ~j;
      t.(idx g i j) <- !row_prefix +. (if i < g - 1 && j > i then t.(idx g (i + 1) j) else 0.0)
    done
  done;
  t

(* Primitive (overlap) composition: pH-join of the weighted histograms,
   participation := estimate (Fig. 10 case 1), join factor 1.

   The view stays keyed at the ancestor predicate, so per-cell attribution
   is always ancestor-based; when the descendant-based estimator is
   requested, its (generally different) total is preserved by scaling the
   ancestor-keyed cells uniformly. *)
let join_overlap options anc_view desc_weight =
  let anc = weighted anc_view in
  let est_cells = Ph_join.estimate_cells ~anc ~desc:desc_weight () in
  let est_cells =
    match options.direction with
    | Ph_join.Ancestor_based -> est_cells
    | Ph_join.Descendant_based ->
      let anc_total = Position_histogram.total est_cells in
      let desc_total =
        Ph_join.estimate ~direction:Ph_join.Descendant_based ~anc
          ~desc:desc_weight ()
      in
      if anc_total > 0.0 then
        Position_histogram.scale est_cells (desc_total /. anc_total)
      else est_cells
  in
  { part = est_cells; jn = None; raw = anc_view.raw }

(* No-overlap composition (ancestor predicate cannot nest): coverage-based
   estimate, balls-in-bins participation (case 2), join factor update. *)
let join_no_overlap anc_view coverage desc_weight desc_part =
  let grid = Position_histogram.grid desc_weight in
  let g = grid.Grid.size in
  let anc_scale ~i ~j =
    let raw = Position_histogram.get anc_view.raw ~i ~j in
    if raw <= 0.0 then 0.0
    else begin
      let ratio = Position_histogram.get anc_view.part ~i ~j /. raw in
      join_factor anc_view g i j *. ratio
    end
  in
  let est_cells =
    No_overlap.estimate_cells_by_ancestor ~coverage ~desc_weight ~anc_scale
  in
  let m = band_sums desc_part in
  let new_part = Position_histogram.create_empty grid in
  let new_jn = Array.make (Grid.cells grid) 0.0 in
  Position_histogram.iter_nonzero anc_view.part (fun ~i ~j n ->
      let p = No_overlap.participation_saturation ~n ~m:(m.(idx g i j)) in
      if p > 0.0 then begin
        Position_histogram.add new_part ~i ~j p;
        new_jn.(idx g i j) <- Position_histogram.get est_cells ~i ~j /. p
      end);
  { part = new_part; jn = Some new_jn; raw = anc_view.raw }

(* Parent-child edge with per-cell level correction (extension): a
   Child_join over the weighted histograms; participation follows the
   overlap rule (case 1). *)
let join_child_cell_level acc desc_weight ~anc_lph ~desc_lph =
  let est_cells =
    Child_join.estimate_cells ~anc:(weighted acc) ~desc:desc_weight
      ~anc_levels:anc_lph ~desc_levels:desc_lph ()
  in
  { part = est_cells; jn = None; raw = acc.raw }

type step = { subtwig : string; method_used : string; estimate : float }

let rec view ?(options = default_options) ?trace catalog (p : Pattern.t) =
  let self = leaf_view (catalog.hist p.Pattern.pred) in
  let coverage =
    if options.use_no_overlap then catalog.coverage p.Pattern.pred else None
  in
  let assembled = ref (Pattern.node p.Pattern.pred) in
  List.fold_left
    (fun acc (axis, child) ->
      let child_view = view ~options ?trace catalog child in
      let global_factor () =
        match (catalog.level p.Pattern.pred, catalog.level child.Pattern.pred) with
        | Some la, Some ld -> Level_histogram.child_fraction ~anc:la ~desc:ld
        | _ -> 1.0
      in
      (* Per-cell child correction applies only on the overlap (pH-join)
         path and when both level-position histograms exist. *)
      let cell_level_available () =
        coverage = None
        && catalog.position_levels p.Pattern.pred <> None
        && catalog.position_levels child.Pattern.pred <> None
      in
      let factor =
        match (axis, options.child_mode) with
        | Pattern.Descendant, _ -> 1.0
        | Pattern.Child, As_descendant -> 1.0
        | Pattern.Child, Level_scaled -> global_factor ()
        | Pattern.Child, Cell_level_scaled ->
          if cell_level_available () then 1.0 else global_factor ()
      in
      let desc_weight = scale (weighted child_view) factor in
      let joined, method_used =
        match coverage with
        | Some cvg ->
          let desc_part = scale child_view.part factor in
          (join_no_overlap acc cvg desc_weight desc_part, "coverage")
        | None -> (
          match (axis, options.child_mode) with
          | Pattern.Child, Cell_level_scaled when cell_level_available () -> (
            match
              ( catalog.position_levels p.Pattern.pred,
                catalog.position_levels child.Pattern.pred )
            with
            | Some anc_lph, Some desc_lph ->
              (join_child_cell_level acc desc_weight ~anc_lph ~desc_lph,
               "child-cell-level")
            | _ ->
              (join_overlap options acc desc_weight, "pH-join"))
          | _ ->
            (join_overlap options acc desc_weight, "pH-join"))
      in
      (match trace with
      | None -> ()
      | Some log ->
        assembled :=
          {
            !assembled with
            Pattern.edges = !assembled.Pattern.edges @ [ (axis, child) ];
          };
        let total = ref 0.0 in
        let grid = Position_histogram.grid joined.part in
        let g = grid.Grid.size in
        Position_histogram.iter_nonzero joined.part (fun ~i ~j count ->
            total := !total +. (count *. join_factor joined g i j));
        log :=
          {
            subtwig = Pattern.to_string !assembled;
            method_used;
            estimate = !total;
          }
          :: !log);
      joined)
    self p.Pattern.edges

let total_matches v =
  let grid = Position_histogram.grid v.part in
  let g = grid.Grid.size in
  let acc = ref 0.0 in
  Position_histogram.iter_nonzero v.part (fun ~i ~j count ->
      acc := !acc +. (count *. join_factor v g i j));
  !acc

let estimate ?options catalog pattern = total_matches (view ?options catalog pattern)

let estimate_trace ?options catalog pattern =
  let log = ref [] in
  let v = view ?options ~trace:log catalog pattern in
  (total_matches v, List.rev !log)

let estimate_pair ?options catalog ~anc ~desc =
  estimate ?options catalog (Pattern.twig anc [ desc ])
