(* Benchmark entry point: runs one workload and prints its result record.

   perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   The second-to-last line of standard output is the full record
   (provenance, sizes, metrics, replayed metrics); the last line is the
   summary {"correct", "attempted", "failed", "metrics"}.  With --trace 0
   the metrics are the end-to-end metrics, with --trace 1 the per-layer
   metrics; every workload reports the same ones. *)

open Perfbench

let workloads =
  [
    ("ingest", Ingest.run Ingest.Memory);
    ("ingest_stream", Ingest.run Ingest.Stream);
    ("optimizer_dblp", Estimation.run Estimation.optimizer_dblp);
    ("recursive_fine", Estimation.run Estimation.recursive_fine);
    ("maintain", Maintain.run);
  ]

let usage () =
  prerr_endline
    ("usage: perfbench --workload {"
    ^ String.concat "|" (List.map fst workloads)
    ^ "} --seed N --seconds S --trace 0|1 [--workdir DIR]");
  exit 2

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.Common.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit_) ]))
       ms)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--probe-stream-heap" :: args -> Layers.probe_stream_heap args
  | _ :: args ->
    let rec parse acc = function
      | [] -> acc
      | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
      | _ -> usage ()
    in
    let opts = parse [] args in
    let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
    let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
    let name = get "workload" in
    let run = match List.assoc_opt name workloads with Some r -> r | None -> usage () in
    let seconds = match float_of_string_opt (get "seconds") with Some s when s > 0.0 -> s | _ -> usage () in
    let traced = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
    let workdir = Option.value ~default:(Filename.concat ".bench_build" "perfbench") (List.assoc_opt "workdir" opts) in
    mkdir_p workdir;
    let env = { Common.seed = int "seed"; seconds; workdir; traced } in
    let (o : Common.outcome), wall = Clock.time (fun () -> run env) in
    let present = List.map (fun m -> m.Common.name) o.metrics in
    let record =
      Json.Obj
        [
          ("workload", Json.Str name);
          ("trace", Json.Bool traced);
          ( "provenance",
            Json.Obj
              ([
                 ("commit", Json.Str (Option.value ~default:"unknown" (Sys.getenv_opt "PERFBENCH_COMMIT")));
                 ("nproc", Json.Int (Domain.recommended_domain_count ()));
                 ("ocaml", Json.Str Sys.ocaml_version);
                 ("seed", Json.Int env.seed);
                 ("seconds", Json.Num seconds);
                 ("clients", Json.Str "1, closed loop");
               ]
              @ [ ("inputs", Json.Obj o.sizes) ]) );
          ("wall_s", Json.Num wall);
          ("timed_operations", Json.Int o.timed);
          ("metrics", metrics_json o.metrics);
          ("replayed", Json.Arr (List.filter_map (fun n -> if List.mem n present then Some (Json.Str n) else None) o.replayed));
        ]
    in
    List.iter
      (fun m -> Printf.eprintf "%-32s %14.6g %s%s\n" m.Common.name m.value m.unit_
          (if List.mem m.name o.replayed then "  (replay)" else ""))
      o.metrics;
    print_endline (Json.to_string record);
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("correct", Json.Bool (o.failed = 0));
              ("attempted", Json.Int o.attempted);
              ("failed", Json.Int o.failed);
              ("metrics", metrics_json o.metrics);
            ]))
  | [] -> usage ()
