(* Command line of the benchmark:
     main.exe --workload <name> --seed <n> --seconds <s> --trace <0|1>
   Prints human-readable notes, then one JSON line:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   Exits 1 when an output check failed, 2 on bad arguments. *)

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace {0|1}\n"
    (String.concat "|"
       (List.map (fun (w : Bench.workload) -> w.Bench.name) Bench.workloads));
  exit 2

let json_number x =
  if not (Float.is_finite x) then failwith "non-finite metric";
  Printf.sprintf "%.17g" x

let json (r : Bench.result) =
  let failed = min r.Bench.attempted r.Bench.failures.Tracker.count in
  let metric (m : Bench.metric) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.Bench.name
      (json_number m.Bench.value) m.Bench.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.Bench.failures.Tracker.count = 0)
    r.Bench.attempted failed
    (String.concat ", " (List.map metric r.Bench.metrics))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S timed duration");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> usage ()) "nfvbench"
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let w = match Bench.find !workload with Some w -> w | None -> usage () in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let r =
    if !trace = 1 then Bench.traced w ~seed:!seed
    else Bench.timed w ~seed:!seed ~seconds:!seconds
  in
  Printf.printf "workload %s, seed %d, %s\n" w.Bench.name !seed
    (if !trace = 1 then "traced" else "timed");
  List.iter (Printf.printf "  %s\n") r.Bench.notes;
  List.iter
    (fun (m : Bench.metric) ->
      Printf.printf "  %-28s %14.6g %s\n" m.Bench.name m.Bench.value m.Bench.unit_)
    r.Bench.metrics;
  List.iter
    (Printf.printf "  CHECK FAILED: %s\n")
    (List.rev r.Bench.failures.Tracker.first);
  print_endline (json r);
  if r.Bench.failures.Tracker.count > 0 then exit 1
