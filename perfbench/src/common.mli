(** Plumbing shared by the workloads: run environment, metrics, oracle
    accounting and measurement phases. *)

type env = {
  seed : int;
  seconds : float;  (** measuring time of the run *)
  workdir : string;  (** working directory for generated files *)
  traced : bool;
}

val path : env -> string -> string
val file_bytes : string -> int

type metric = { name : string; value : float; unit_ : string }

val metric : string -> string -> float -> metric
(** [metric name unit value]. *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;
      (** end-to-end metrics untraced, per-layer metrics traced *)
  sizes : (string * Json.t) list;  (** input sizes, for the provenance block *)
  timed : int;  (** operations the untraced slices timed *)
  replayed : string list;
      (** metrics measured by replaying a layer's public call on the same
          inputs rather than inside the workload's operations *)
}

(** Oracle accounting: every checked operation is one attempt. *)
type checks = { mutable attempted : int; mutable failed : int }

val checks : unit -> checks
val check : checks -> bool -> string -> unit

val guard : checks -> string -> (unit -> 'a) -> 'a option
(** Run an operation; an exception counts as a failed attempt. *)

val finite_nonneg : float -> bool
val qerror : est:float -> real:int -> float

val deadline_after : float -> int
val before : int -> bool

type 'a setup
(** Timed set-up runs of one workload. *)

val setup : (unit -> 'a) -> 'a * 'a setup
(** Run set-up at least 5 times and for at least 0.2 s (at most 50
    times), each after a full major collection: the last result. *)

val setup_s : 'a setup -> float
(** Seconds of the fastest set-up run, those {!run_slices} adds
    included. *)

val repeat : int -> (unit -> 'a) -> float array
(** Wall seconds of [n] calls. *)

val run_slices :
  env ->
  setup:'a setup ->
  make:(unit -> 'acc) ->
  measure:(Trace.t -> 'acc -> float -> unit) ->
  'acc * Trace.t * 'acc
(** Call [measure recorder acc seconds] over the run's measuring time,
    in slices of about a second (at least five): untraced, or for a
    traced run alternating between a disabled and an enabled recorder,
    each side with its own accumulator from [make].  Between slices,
    set-up runs again for at least 0.05 s.  Returns the untraced
    accumulator, the enabled recorder and the traced accumulator. *)

val overhead_pct : untraced:float -> traced:float -> float
val coverage : Trace.t -> op:string -> float
(** Share of the time in spans named [op] that their child spans cover. *)

val parse_xml : string -> Xmlest_core.Xmlest.Elem.t
(** [Xml_parser.parse_file], raising [Failure] on a parse error. *)

val ok_exn : string -> ('a, string) result -> 'a

val end_to_end :
  setup_s:float ->
  op_p50_us:float ->
  op_p90_us:float ->
  ops_per_s:float ->
  qerr_gmean:float ->
  xsum_bytes_per_xml_kb:float ->
  metric list
(** The end-to-end metrics, the same for every workload, in the order of
    [BENCHMARK.json]. *)
