(* The repository benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload for about S seconds and prints, as its last line, one
   JSON object: the correctness tally and either every end-to-end metric
   (--trace 0) or every per-layer metric (--trace 1).  The line before it
   carries provenance and sample counts.  Exits 1 when any correctness
   check fails, 2 on bad arguments.  See README.md. *)

let workloads = List.map (fun (w : Dp.workload) -> w.Dp.name) Dp.all @ [ "contracts" ]

let trace_dir = "perfbench/out"

(* Render every contract the benchmark compares against, once. *)
let write_expected () =
  List.iter
    (fun t ->
      Solver.Cache.reset ();
      Out_channel.with_open_bin (Derive.expected_path t) (fun oc ->
          output_string oc (Derive.run t).Derive.text))
    (Contracts.targets ())

let usage () =
  Printf.eprintf
    "usage: bench.exe --workload {%s} --seed N --seconds S --trace 0|1\n\
    \       bench.exe --write-expected\n"
    (String.concat "|" workloads);
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let regen = ref false in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--workload", Arg.Set_string workload, "");
         ("--seed", Arg.Set_int seed, "");
         ("--seconds", Arg.Set_float seconds, "");
         ("--trace", Arg.Set_int trace, "");
         ("--write-expected", Arg.Set regen, "");
       ]
       (fun _ -> raise (Arg.Bad "positional argument"))
       ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  if !regen then (write_expected (); exit 0);
  if
    (not (List.mem !workload workloads))
    || !seconds <= 0. || !seed < 0
    || not (!trace = 0 || !trace = 1)
  then usage ();
  let traced = !trace = 1 in
  let effective_cores = Probe.effective_cores () in
  if traced then Obs.enable ();
  let checks, metrics, info =
    match List.find_opt (fun (w : Dp.workload) -> w.Dp.name = !workload) Dp.all with
    | Some wl -> Dp.run wl ~seed:!seed ~seconds:!seconds ~traced ~effective_cores
    | None -> Contracts.run ~seed:!seed ~seconds:!seconds ~traced ~effective_cores
  in
  if traced then begin
    if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
    Obs.Trace_io.write ~path:(Filename.concat trace_dir (!workload ^ "_trace.json"))
  end;
  print_endline
    (Measure.json_to_string
       (Measure.O
          ([
             ("workload", Measure.S !workload);
             ("seed", Measure.I !seed);
             ("trace", Measure.B traced);
             ("provenance", Measure.Raw (Perf.Json.to_string (Perf.Provenance.json ())));
             ("effective_cores", Measure.F effective_cores);
           ]
          @ info)));
  Measure.print_result checks metrics;
  exit (if checks.Measure.failed = 0 then 0 else 1)
