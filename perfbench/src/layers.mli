(** The per-layer metrics every workload reports with [--trace 1].

    A workload measures the layer calls its own operations and set-up
    make; every other layer is timed by replaying that layer's public
    call on the workload's own inputs (its document, predicates,
    summary, patterns and updates), and the metric is listed as a
    replay.  Every workload thus reports the same metrics, in the order
    of {!names}. *)

open Xmlest_core

type subject = {
  xml : string;  (** XML file of the document *)
  doc : Xmlest.Document.t;
  preds : Xmlest.Predicate.t list;
  predicate_set : string;  (** the name {!Inputs.predicates} gives [preds] *)
  grid : int;
  summary : Xmlest.Summary.t;  (** the workload's summary, mapped or in memory *)
  texts : string array;  (** the workload's patterns, catalog predicates only *)
  qerr : float array;  (** q-error of each estimate the workload checks for accuracy *)
  updates : Xmlest.Update.t list;  (** an update stream valid against [doc] *)
  scratch : string;  (** file the replays may write *)
}

val names : string list

val probe_stream_heap : string list -> unit
(** [probe_stream_heap [xml; predicate_set; grid]]: one streamed build in
    this process, then print its peak major heap in words.  The parent
    runs it in a child process of its own executable
    ([--probe-stream-heap]), so the figure holds that build alone. *)

val metrics :
  Common.checks -> subject -> own:Common.metric list -> Common.metric list * string list
(** Every metric of {!names}: from [own] where the workload measured it,
    replayed otherwise.  Returns the metrics and the names of the
    replayed ones.  Replays that also check an oracle (2-domain build
    and batch against 1 domain) count in the checks. *)
