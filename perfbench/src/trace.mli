(** In-memory spans recorded around calls into the library's layers.

    Spans nest by dynamic extent (one caller, closed loop), are kept in
    memory while the workload runs and are written out when it ends.  A
    disabled recorder calls the wrapped function and records nothing. *)

type t

val create : enabled:bool -> t

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f ()] inside a span called [name], a child of
    the innermost span open at the call. *)

val durations : t -> string -> float array
(** Wall seconds of every closed span with this name. *)

val self_seconds : t -> (string * float) list
(** Per span name, the summed self time: duration minus the time covered
    by direct child spans. *)

val write : t -> string -> unit
(** Write every closed span as a tab-separated line
    ([id parent name start_ns stop_ns]). *)
