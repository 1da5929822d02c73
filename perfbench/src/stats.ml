module Samples = struct
  type 'a t = { mutable data : 'a array; mutable n : int; dummy : 'a }

  let create dummy = { data = Array.make 1024 dummy; n = 0; dummy }

  let add t x =
    if t.n = Array.length t.data then begin
      let d = Array.make (2 * t.n) t.dummy in
      Array.blit t.data 0 d 0 t.n;
      t.data <- d
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let to_array t = Array.sub t.data 0 t.n
end

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let gmean xs = exp (mean (Array.map log xs))
let sum xs = Array.fold_left ( +. ) 0.0 xs

let per_key_min keys xs =
  let best = Hashtbl.create 64 in
  Array.iteri
    (fun i k ->
      match Hashtbl.find_opt best k with
      | Some b when b <= xs.(i) -> ()
      | _ -> Hashtbl.replace best k xs.(i))
    keys;
  Array.map (Hashtbl.find best) keys

module Rate = struct
  type t = {
    window_ns : int;
    min_ops : int;
    mutable start : int;
    mutable ops : int;
    rates : float Samples.t;
  }

  let create ~window ~min_ops =
    { window_ns = int_of_float (window *. 1e9); min_ops; start = 0; ops = 0; rates = Samples.create 0.0 }

  let start t now =
    t.start <- now;
    t.ops <- 0

  let tick t now =
    t.ops <- t.ops + 1;
    let dt = now - t.start in
    if dt >= t.window_ns && t.ops >= t.min_ops then begin
      Samples.add t.rates (float_of_int t.ops *. 1e9 /. float_of_int dt);
      start t now
    end

  let best t =
    match Samples.to_array t.rates with
    | [||] -> nan
    | a -> Array.fold_left Float.max a.(0) a
end
