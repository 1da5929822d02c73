(* Shared fixtures and QCheck generators for the test suites. *)

open Xmlest_core

(* --- Deterministic QCheck seeding ------------------------------------- *)

(* Every QCheck suite runs from one fixed seed so failures reproduce
   across machines and runs; [QCHECK_SEED] overrides it (same variable
   qcheck itself honors).  The seed is printed on failure, so a shrunk
   counterexample can be replayed with
   [QCHECK_SEED=<seed> dune runtest]. *)
let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some seed -> seed
    | None -> 0x5eed)
  | None -> 0x5eed

let to_alcotest test =
  let name, speed, run =
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| qcheck_seed |])
      test
  in
  let run switch =
    try run switch
    with e ->
      Printf.eprintf
        "[qcheck] failing run used seed %d (set QCHECK_SEED to replay)\n%!"
        qcheck_seed;
      raise e
  in
  (name, speed, run)

(* The example document of the paper's Fig. 1: a department with faculty,
   staff, lecturer, research scientist; faculty have TAs and RAs. *)
let fig1 () =
  let e = Xmlest.Elem.make in
  let leaf tag = Xmlest.Elem.make tag in
  e "department"
    ~children:
      [
        e "faculty" ~children:[ leaf "name"; leaf "RA" ];
        e "staff" ~children:[ leaf "name" ];
        e "faculty"
          ~children:[ leaf "name"; leaf "secretary"; leaf "RA"; leaf "RA"; leaf "RA" ];
        e "lecturer" ~children:[ leaf "name"; leaf "TA"; leaf "TA"; leaf "TA" ];
        e "faculty"
          ~children:[ leaf "name"; leaf "secretary"; leaf "TA"; leaf "RA"; leaf "RA"; leaf "TA" ];
        e "research_scientist"
          ~children:
            [ leaf "name"; leaf "secretary"; leaf "RA"; leaf "RA"; leaf "RA"; leaf "RA" ];
      ]

let fig1_doc () = Xmlest.Document.of_elem (fig1 ())

(* A small deeply-nested fixture: sections within sections. *)
let nested ~depth ~fanout =
  let rec go d =
    if d = 0 then Xmlest.Elem.leaf "para" "text"
    else
      Xmlest.Elem.make "section" ~children:(List.init fanout (fun _ -> go (d - 1)))
  in
  Xmlest.Elem.make "doc" ~children:[ go depth ]

(* --- Random element trees for property tests ------------------------- *)

let tag_pool = [| "a"; "b"; "c"; "d"; "e" |]

(* Random tree with [n] nodes, built by repeatedly attaching a fresh node
   to a random existing node; tags drawn from a small pool so that
   structural predicates select non-trivial, often-nested subsets. *)
type mut = { mtag : string; mutable mchildren : mut list }

let random_elem st n =
  let tag () = tag_pool.(Random.State.int st (Array.length tag_pool)) in
  let root = { mtag = tag (); mchildren = [] } in
  let nodes = Array.make n root in
  for k = 1 to n - 1 do
    let parent = nodes.(Random.State.int st k) in
    let node = { mtag = tag (); mchildren = [] } in
    parent.mchildren <- node :: parent.mchildren;
    nodes.(k) <- node
  done;
  let rec freeze m =
    Xmlest.Elem.make m.mtag ~children:(List.rev_map freeze m.mchildren)
  in
  freeze root

let elem_gen ?(max_nodes = 60) () st =
  random_elem st (1 + Random.State.int st max_nodes)

let elem_arbitrary ?max_nodes () =
  QCheck.make
    ~print:(fun e -> Format.asprintf "%a" Xmlest.Elem.pp e)
    (elem_gen ?max_nodes ())

let doc_gen ?max_nodes () st = Xmlest.Document.of_elem (elem_gen ?max_nodes () st)

(* A document plus two tag predicates drawn from the pool. *)
let doc_two_tags_gen ?max_nodes () st =
  let tag () = tag_pool.(Random.State.int st (Array.length tag_pool)) in
  let e = elem_gen ?max_nodes () st in
  (e, Xmlest.Document.of_elem e, tag (), tag ())

let doc_two_tags_arbitrary ?max_nodes () =
  QCheck.make
    ~print:(fun (e, _, t1, t2) ->
      Format.asprintf "tags (%s, %s) in %a" t1 t2 Xmlest.Elem.pp e)
    (doc_two_tags_gen ?max_nodes ())

(* Exact pair count by definition (independent of the engine under test). *)
let brute_force_pairs doc anc_pred desc_pred ~axis =
  let n = Xmlest.Document.size doc in
  let total = ref 0 in
  for a = 0 to n - 1 do
    if Xmlest.Predicate.eval anc_pred doc a then
      for d = 0 to n - 1 do
        if Xmlest.Predicate.eval desc_pred doc d then begin
          let ok =
            match axis with
            | `Descendant -> Xmlest.Document.is_ancestor doc ~anc:a ~desc:d
            | `Child -> Xmlest.Document.parent doc d = a
          in
          if ok then incr total
        end
      done
  done;
  !total

(* Brute-force twig match count by enumerating all mappings. *)
let brute_force_twig doc (pattern : Xmlest.Pattern.t) =
  let n = Xmlest.Document.size doc in
  let rec count (p : Xmlest.Pattern.t) v =
    if not (Xmlest.Predicate.eval p.Xmlest.Pattern.pred doc v) then 0
    else
      List.fold_left
        (fun acc (axis, child) ->
          if acc = 0 then 0
          else begin
            let sub = ref 0 in
            for u = 0 to n - 1 do
              let related =
                match axis with
                | Xmlest.Pattern.Descendant ->
                  Xmlest.Document.is_ancestor doc ~anc:v ~desc:u
                | Xmlest.Pattern.Child -> Xmlest.Document.parent doc u = v
              in
              if related then sub := !sub + count child u
            done;
            acc * !sub
          end)
        1 p.Xmlest.Pattern.edges
  in
  let total = ref 0 in
  for v = 0 to n - 1 do
    total := !total + count pattern v
  done;
  !total

let float_close ?(tolerance = 1e-9) a b =
  Float.abs (a -. b)
  <= tolerance *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let contains_substring haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at k = k + nn <= nh && (String.sub haystack k nn = needle || at (k + 1)) in
  at 0

(* --- pH-join kernel oracle ---------------------------------------------- *)

(* Relative per-cell tolerance between the fused pH-join kernel and the
   references it is checked against.  They add the same non-negative
   terms in different orders (and the kernel subtracts the corner terms
   from a band sum instead of adding the rest), so they agree to a few
   ulps, not bit for bit. *)
let kernel_tolerance = 1e-12

let rel_close a b =
  Float.abs (a -. b) <= kernel_tolerance *. Float.max (Float.abs a) (Float.abs b)

(* Brute-force per-cell pH-join: every (ancestor cell, descendant cell)
   pair weighted by [cell_pair_weight] and attributed to the ancestor's
   cell (ancestor-based) or the descendant's (descendant-based). *)
let brute_force_cells ~direction ~anc ~desc =
  let g = (Xmlest.Position_histogram.grid anc).Xmlest.Grid.size in
  let out = Array.make (g * g) 0.0 in
  Xmlest.Position_histogram.iter_nonzero anc (fun ~i ~j a ->
      Xmlest.Position_histogram.iter_nonzero desc (fun ~i:k ~j:l d ->
          let w =
            Xmlest.Ph_join.cell_pair_weight ~direction ~anc:(i, j) ~desc:(k, l) ()
          in
          let cell =
            match direction with
            | Xmlest.Ph_join.Ancestor_based -> (i * g) + j
            | Xmlest.Ph_join.Descendant_based -> (k * g) + l
          in
          out.(cell) <- out.(cell) +. (a *. d *. w)));
  out

(* Every check of the fused kernel on one histogram pair, in both
   directions: each cell finite and >= 0, within [kernel_tolerance] of
   brute force and of Fig. 9's precomputed-coefficient form, and the cell
   histogram's total equal to [estimate] bit for bit.  Returns the
   failures; empty when all hold. *)
let kernel_failures ~anc ~desc =
  let g = (Xmlest.Position_histogram.grid anc).Xmlest.Grid.size in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  List.iter
    (fun (direction, dir_name, coefs) ->
      let cells = Xmlest.Ph_join.estimate_cells ~direction ~anc ~desc () in
      let reference =
        Xmlest.Ph_join.estimate_cells_with ~direction ~coefs ~anc ~desc ()
      in
      let brute = brute_force_cells ~direction ~anc ~desc in
      for i = 0 to g - 1 do
        for j = i to g - 1 do
          let v = Xmlest.Position_histogram.get cells ~i ~j in
          if not (Float.is_finite v && v >= 0.0) then
            fail "%s (%d,%d): %h not finite and >= 0" dir_name i j v;
          if not (rel_close v brute.((i * g) + j)) then
            fail "%s (%d,%d): kernel %h, brute force %h" dir_name i j v
              brute.((i * g) + j);
          let r = Xmlest.Position_histogram.get reference ~i ~j in
          if not (rel_close v r) then
            fail "%s (%d,%d): kernel %h, Fig. 9 form %h" dir_name i j v r
        done
      done;
      let total = Xmlest.Position_histogram.total cells in
      let est = Xmlest.Ph_join.estimate ~direction ~anc ~desc () in
      if not (Float.equal total est) then
        fail "%s: cell total %h, estimate %h" dir_name total est)
    [
      ( Xmlest.Ph_join.Ancestor_based,
        "ancestor-based",
        Xmlest.Ph_join.descendant_coefficients desc );
      ( Xmlest.Ph_join.Descendant_based,
        "descendant-based",
        Xmlest.Ph_join.ancestor_coefficients anc );
    ];
  List.rev !failures
