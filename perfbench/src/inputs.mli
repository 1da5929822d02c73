(** Seeded input generation.  The same seed gives byte-identical inputs;
    the library only ever sees what these functions produce. *)

open Xmlest_core

(** {2 DBLP-shaped data} *)

val dblp_scale : float
(** [Dblp_gen] scale of every DBLP input (1.0 is Table 1's size). *)

val dblp_grid : int
(** Grid size of the DBLP summaries: 10, the paper's configuration. *)

val dblp_elem : ?scale:float -> seed:int -> unit -> Xmlest.Elem.t
(** [scale] defaults to {!dblp_scale}. *)

val ingest_scales : float list
(** [Dblp_gen] scales of the ingest corpus, smallest first. *)

val ingest_elem : seed:int -> int -> Xmlest.Elem.t
(** [ingest_elem ~seed k] is file [k] of the ingest corpus, at scale
    [List.nth ingest_scales k]. *)

val write_xml : string -> Xmlest.Elem.t -> unit

val dblp_predicates : unit -> Xmlest.Predicate.t list
(** The 52 predicates: Table 1's 12 plus 40 per-year predicates. *)

(** {2 Recursive data} *)

val treebank_sentences : int
val treebank_grid : int
val treebank_elem : seed:int -> Xmlest.Elem.t

val treebank_predicates : unit -> Xmlest.Predicate.t list
(** One tag predicate per element tag of the treebank grammar. *)

val predicates : string -> Xmlest.Predicate.t list
(** ["dblp"] or ["treebank"]: the predicate set of that name. *)

(** {2 Pattern pools} *)

type pool = {
  texts : string array;  (** pattern syntax, distinct, 2-4 nodes *)
  truth : int array;  (** exact answer size on the generating document, > 0 *)
}

val paper_queries : string list
(** The catalog-only DBLP queries of the paper-reproduction harness. *)

val dblp_pool : seed:int -> Xmlest.Document.t -> pool
(** {!paper_queries} that have an answer on the document, then 450 twigs
    of 2-4 nodes rooted at article or book, with field, per-year and
    cite-prefix leaves under [/] or [//] edges; catalog predicates only.
    After the head, pool order interleaves the (root, leaf count)
    strata. *)

val treebank_pool : seed:int -> Xmlest.Document.t -> pool
(** Every answerable pattern of a fixed grammar of 2-3 node paths and
    twigs over the recursive phrase tags, in seeded order. *)

val uniform_stream : seed:int -> pool_size:int -> length:int -> int array
(** Pool indices drawn uniformly. *)

val deck_stream : seed:int -> pool_size:int -> length:int -> int array
(** Pool indices dealt from a deck reshuffled whenever it runs out: every
    index occurs once in each [pool_size] consecutive draws from the
    start. *)

val zipf_stream : seed:int -> s:float -> pool_size:int -> length:int -> int array
(** Pool indices drawn Zipf-skewed with exponent [s]: index [r] has
    weight [1 / (r + 1)^s]. *)

(** {2 Updates} *)

val replay_updates : int
(** Length of the update stream a workload without one replays for the
    maintenance layer's metrics: maintain's own stream length. *)

val updates :
  seed:int -> count:int -> Xmlest.Document.t -> Xmlest.Update.t list * Xmlest.Document.t
(** An update stream (end appends, interior inserts, deletes, text
    replacements) valid against the document as edited so far, and the
    document it ends with. *)
