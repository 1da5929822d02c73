(** Minimal JSON emitter for the result records. *)

type t =
  | Bool of bool
  | Int of int
  | Num of float  (** printed with all 17 significant digits; non-finite as [null] *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One line. *)
