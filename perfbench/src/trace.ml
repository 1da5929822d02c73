type span = { id : int; parent : int; name : string; start_ns : int; stop_ns : int }

type t = {
  enabled : bool;
  mutable spans : span list;  (* most recent first *)
  mutable next_id : int;
  mutable current : int;  (* id of the open span, 0 at top level *)
}

let create ~enabled = { enabled; spans = []; next_id = 1; current = 0 }

let span t name f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    let parent = t.current in
    t.next_id <- id + 1;
    t.current <- id;
    let start_ns = Clock.now_ns () in
    let close () =
      t.current <- parent;
      t.spans <- { id; parent; name; start_ns; stop_ns = Clock.now_ns () } :: t.spans
    in
    match f () with
    | r ->
      close ();
      r
    | exception e ->
      close ();
      raise e
  end

let duration s = Clock.seconds (s.stop_ns - s.start_ns)

let durations t name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (duration s) else None)
    t.spans
  |> Array.of_list

(* Self time: a span's duration minus the part its direct children cover
   (children never overlap: one caller, closed loop). *)
let self_seconds t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let c = Option.value ~default:0.0 (Hashtbl.find_opt child s.parent) in
      Hashtbl.replace child s.parent (c +. duration s))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let c = Option.value ~default:0.0 (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (c +. self))
    t.spans;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tparent\tname\tstart_ns\tstop_ns\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" s.id s.parent s.name s.start_ns
            s.stop_ns)
        (List.rev t.spans))
