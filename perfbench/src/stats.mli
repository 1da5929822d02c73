(** Summary statistics over samples. *)

(** Growable buffer of samples. *)
module Samples : sig
  type 'a t

  val create : 'a -> 'a t
  (** An empty buffer; the argument only fills unused slots. *)

  val add : 'a t -> 'a -> unit
  val to_array : 'a t -> 'a array
end

val quantile : float array -> float -> float
(** [quantile xs q], [q] in [\[0, 1\]], interpolating linearly between the
    closest ranks; [nan] on no samples. *)

val median : float array -> float
val mean : float array -> float

val gmean : float array -> float
(** Geometric mean (all samples positive). *)

val sum : float array -> float

val per_key_min : int array -> float array -> float array
(** [per_key_min keys xs] replaces each sample by the smallest sample with
    the same key: best-of-N per operation kind, weighted by how often the
    kind ran. *)

(** Throughput over consecutive windows of a measuring loop: every
    window holds the loop's own overhead, allocation and GC, and the best
    window dodges the slow stretches of a shared host. *)
module Rate : sig
  type t

  val create : window:float -> min_ops:int -> t
  (** A window closes at the first operation that ends at least [window]
      seconds after it opened and makes it hold at least [min_ops]
      operations. *)

  val start : t -> int -> unit
  (** A measuring slice begins at this {!Clock.now_ns} reading; a window
      left open by the previous slice is dropped. *)

  val tick : t -> int -> unit
  (** One operation ended at this {!Clock.now_ns} reading. *)

  val best : t -> float
  (** Operations per second of the fastest closed window; [nan] if none
      closed. *)
end
