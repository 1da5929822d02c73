(** Monotonic wall clock. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary fixed point. *)

val seconds : int -> float
(** Nanoseconds to seconds. *)

val time : (unit -> 'a) -> 'a * float
(** Result and wall seconds of one call. *)
