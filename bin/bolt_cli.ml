(* The BOLT command-line tool: derive and print performance contracts. *)

let analyze (entry : Nf.Registry.entry) =
  let config =
    Bolt.Pipeline.Config.(
      default |> with_contracts entry.Nf.Registry.contracts)
  in
  Bolt.Pipeline.analyze ~config entry.Nf.Registry.program

(* Observability output goes to stderr, so the contract printed on
   stdout stays bit-identical whether or not a run is traced. *)
let dump_obs trace_path stats =
  (match trace_path with
  | Some path ->
      Obs.Trace_io.write ~path;
      Fmt.epr "wrote trace %s@." path
  | None -> ());
  if stats then begin
    Fmt.epr "@.== per-phase spans ==@.%a" Obs.Span.pp_summary ();
    Fmt.epr "@.== metrics ==@.%a" Obs.Metrics.pp ()
  end

let contract_cmd nf_name metric json_path trace_path stats =
  if trace_path <> None || stats then Obs.enable ();
  let entry = Nf.Registry.find nf_name in
  let t = analyze entry in
  let contract = Bolt.Pipeline.contract t ~classes:entry.Nf.Registry.classes in
  (match json_path with
  | Some path ->
      Perf.Contract_io.write_contract ~path contract;
      Fmt.pr "wrote %s@." path
  | None -> ());
  Fmt.pr "analysed %d feasible paths (%d forks pruned)@.@."
    (Bolt.Pipeline.path_count t)
    t.Bolt.Pipeline.engine.Symbex.Engine.infeasible_pruned;
  (match metric with
  | None -> Fmt.pr "%a@." Perf.Contract.pp contract
  | Some m -> Fmt.pr "%a@." (Perf.Contract.pp_metric m) contract);
  Fmt.pr "@.concrete bounds at each class's PCV bindings:@.";
  List.iter
    (fun (cls : Symbex.Iclass.t) ->
      let row metric =
        match Bolt.Pipeline.predict t cls metric with
        | Ok n -> string_of_int n
        | Error pcv -> "unbound PCV " ^ Perf.Pcv.name pcv
      in
      Fmt.pr "  %-6s IC <= %-14s MA <= %-12s cycles <= %s@."
        cls.Symbex.Iclass.name
        (row Perf.Metric.Instructions)
        (row Perf.Metric.Memory_accesses)
        (row Perf.Metric.Cycles))
    entry.Nf.Registry.classes;
  dump_obs trace_path stats

let stats_cmd nf_name trace_path =
  Obs.enable ();
  let entry = Nf.Registry.find nf_name in
  let t = analyze entry in
  let cache = Solver.Cache.stats () in
  Fmt.pr "pipeline for %s: %d feasible paths, %d forks pruned, %d unsolved@."
    nf_name
    (Bolt.Pipeline.path_count t)
    t.Bolt.Pipeline.engine.Symbex.Engine.infeasible_pruned
    t.Bolt.Pipeline.unsolved;
  Fmt.pr
    "solver cache: %d hits / %d misses / %d evictions (%.1f%% hit rate)@."
    cache.Solver.Cache.hits cache.Solver.Cache.misses
    cache.Solver.Cache.evictions
    (100. *. Solver.Cache.hit_rate cache);
  Fmt.pr "@.== per-phase spans ==@.%a" Obs.Span.pp_summary ();
  Fmt.pr "@.== metrics ==@.%a" Obs.Metrics.pp ();
  match trace_path with
  | Some path ->
      Obs.Trace_io.write ~path;
      Fmt.pr "@.wrote trace %s@." path
  | None -> ()

let paths_cmd nf_name =
  let entry = Nf.Registry.find nf_name in
  let t = analyze entry in
  Fmt.pr "%a" (Bolt.Report.pp_paths ~witnesses:true) t

let report_cmd nf_name =
  let entry = Nf.Registry.find nf_name in
  let t = analyze entry in
  Fmt.pr "%a" (Bolt.Report.pp_full ~classes:entry.Nf.Registry.classes) t

let program_cmd nf_name =
  let entry = Nf.Registry.find nf_name in
  Fmt.pr "%a@." Ir.Program.pp entry.Nf.Registry.program

let validate_cmd nf_name pcap_path in_port =
  let entry = Nf.Registry.find nf_name in
  let t = analyze entry in
  let worst = Bolt.Pipeline.worst_case t in
  let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
  let stream =
    Workload.Stream.of_pcap ~in_port (Net.Pcap.read_file pcap_path)
  in
  let report =
    Experiments.Validate.run ~worst ~dss entry.Nf.Registry.program stream
  in
  Fmt.pr "%a" Experiments.Validate.pp report;
  if report.Experiments.Validate.violations <> [] then exit 2

(* Property-based soundness fuzzing: run the Proptest oracles for a
   number of seeded rounds.  Deterministic: the same --seed/--runs/
   --oracle combination always draws the same subjects and shrinks to
   the same counterexamples, so every reported failure comes with a
   replayable command. *)
let fuzz_cmd seed runs oracle_names stateful list_only json_path =
  if list_only then begin
    List.iter (fun n -> Fmt.pr "%s@." n) (Proptest.Oracle.names ());
    List.iter (fun n -> Fmt.pr "%s@." n) (Proptest.Oracle.stateful_names ())
  end
  else begin
    let oracles =
      match (oracle_names, stateful) with
      | [], false -> Proptest.Oracle.all ()
      | [], true -> Proptest.Oracle.stateful ()
      | names, _ -> List.map Proptest.Oracle.find names
    in
    Fmt.pr "fuzzing %d round(s) of [%s] from seed %d@." runs
      (String.concat ", "
         (List.map (fun (o : Proptest.Oracle.t) -> o.Proptest.Oracle.name) oracles))
      seed;
    let outcome =
      Proptest.Runner.run ~log:(fun s -> Fmt.pr "%s@." s) ~seed ~runs ~oracles ()
    in
    Fmt.pr "@.%a" Proptest.Runner.pp_outcome outcome;
    (match json_path with
    | None -> ()
    | Some path ->
        let open Perf.Json in
        write_file ~path
          (Obj
             [
               ("seed", Int outcome.Proptest.Runner.seed);
               ("runs", Int outcome.Proptest.Runner.runs);
               ("checks", Int outcome.Proptest.Runner.checks);
               ( "failures",
                 List
                   (List.map
                      (fun (f : Proptest.Oracle.failure) ->
                        Obj
                          [
                            ("oracle", String f.Proptest.Oracle.oracle);
                            ("seed", Int f.Proptest.Oracle.seed);
                            ("repro", String f.Proptest.Oracle.repro);
                            ("detail", String f.Proptest.Oracle.detail);
                          ])
                      outcome.Proptest.Runner.failures) );
             ]);
        Fmt.pr "wrote %s@." path);
    if outcome.Proptest.Runner.failures <> [] then exit 1
  end

(* Contract-guided autotuning: enumerate a deterministic grid of specs,
   price each point analytically, print the Pareto front and validate
   the winner by specialized replay. *)
let tune_cmd nf_name backends capacities packets seed json_path =
  let opt = function [] -> None | l -> Some l in
  let result =
    try
      Tuner.Tune.run ~nf:nf_name ?backends:(opt backends)
        ?capacities:(opt capacities) ~packets ~seed ()
    with Invalid_argument msg ->
      Fmt.epr "tune: %s@." msg;
      exit 1
  in
  Fmt.pr "%a" Tuner.Tune.pp result;
  match json_path with
  | None -> ()
  | Some path ->
      Perf.Json.write_file ~path (Tuner.Tune.to_json result);
      Fmt.pr "wrote %s@." path

(* Network-wide contracts: analyse a built-in topology.  The graph is
   validated, walked jointly — every node symbolically executed on its
   predecessor's symbolic output, infeasible route tuples pruned — and the
   result printed as per-(ingress-class, egress) end-to-end bounds.  --replay additionally
   pushes the topology's deterministic workload through the specialized
   per-node engines and checks every packet against the composed bound
   (exit 2 on violation). *)
let topo_cmd name_opt list_only class_name replay metric json_path =
  if list_only then
    List.iter (fun n -> Fmt.pr "%s@." n) (Topo.Builtin.names ())
  else begin
    let name =
      match name_opt with
      | Some n -> n
      | None ->
          Fmt.epr "topo: name a topology (or --list); known: %s@."
            (String.concat ", " (Topo.Builtin.names ()));
          exit 1
    in
    let entry =
      try Topo.Builtin.find name
      with Invalid_argument msg ->
        Fmt.epr "topo: %s@." msg;
        exit 1
    in
    let g = entry.Topo.Builtin.graph in
    Fmt.pr "%a@." Topo.Graph.pp g;
    let t = Topo.Analysis.run g in
    Fmt.pr
      "analysed %d end-to-end routes (%d infeasible route tuples pruned, %d \
       unsolved)@.@."
      (List.length t.Topo.Analysis.routes)
      t.Topo.Analysis.infeasible_routes t.Topo.Analysis.unsolved;
    let contract = Topo.Analysis.contract t in
    (match json_path with
    | Some path ->
        Perf.Contract_io.write_contract ~path contract;
        Fmt.pr "wrote %s@." path
    | None -> ());
    (match class_name with
    | None -> (
        match metric with
        | None -> Fmt.pr "%a@." Perf.Contract.pp contract
        | Some m -> Fmt.pr "%a@." (Perf.Contract.pp_metric m) contract)
    | Some cname ->
        let cls =
          match
            List.find_opt
              (fun (c : Symbex.Iclass.t) -> c.Symbex.Iclass.name = cname)
              (Topo.Analysis.ingress_classes t)
          with
          | Some c -> c
          | None ->
              Fmt.epr "topo: unknown class %S; ingress classes: %s@." cname
                (String.concat ", "
                   (List.map
                      (fun (c : Symbex.Iclass.t) -> c.Symbex.Iclass.name)
                      (Topo.Analysis.ingress_classes t)));
              exit 1
        in
        let (cost, n), per_egress = Topo.Analysis.class_breakdown t cls in
        Fmt.pr "end-to-end bound for class %s (%d compatible routes):@.%a@."
          cname n Perf.Cost_vec.pp cost;
        List.iter
          (fun (eg, (c, k)) ->
            Fmt.pr "@.  via %a (%d routes):  IC <= %a@." Topo.Analysis.pp_egress
              eg k Perf.Perf_expr.pp
              (Perf.Cost_vec.get c Perf.Metric.Instructions))
          per_egress);
    if replay > 0 then begin
      let harness = Topo.Harness.create g in
      let report =
        Topo.Harness.check harness ~worst:(Topo.Analysis.worst t)
          (entry.Topo.Builtin.workload ~packets:replay)
      in
      Fmt.pr "@.replay of the built-in workload vs the composed bound:@.%a"
        Topo.Harness.pp_report report;
      if report.Topo.Harness.violations <> [] then exit 2
    end
  end

open Cmdliner

let nf_arg =
  let names = Nf.Registry.names () in
  let doc =
    Printf.sprintf "Network function to analyse: %s."
      (String.concat ", " names)
  in
  let nf = Arg.enum (List.map (fun n -> (n, n)) names) in
  Arg.(required & pos 0 (some nf) None & info [] ~docv:"NF" ~doc)

let metric_conv =
  Arg.enum
    [
      ("ic", Perf.Metric.Instructions);
      ("ma", Perf.Metric.Memory_accesses);
      ("cycles", Perf.Metric.Cycles);
    ]

let metric_arg =
  Arg.(
    value
    & opt (some ~none:"all" metric_conv) None
    & info [ "metric" ] ~docv:"METRIC" ~doc:"Only print ic, ma or cycles.")

let json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Also write the contract as JSON to $(docv).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the run and write a Chrome trace-event JSON to $(docv) \
           (open in chrome://tracing or Perfetto).")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print span and metric summaries to stderr after the run.")

let predict_cmd json_path bindings metric =
  (* evaluate a previously exported contract without re-running BOLT *)
  match Perf.Contract_io.read_contract ~path:json_path with
  | Error msg ->
      Fmt.epr "cannot read %s: %s@." json_path msg;
      exit 1
  | Ok contract ->
      let bindings =
        List.map (fun (name, value) -> (Perf.Pcv.v name, value)) bindings
      in
      List.iter
        (fun class_name ->
          match
            Perf.Contract.predict contract ~class_name bindings metric
          with
          | Ok n -> Fmt.pr "  %-40s %a <= %d@." class_name Perf.Metric.pp metric n
          | Error pcv ->
              Fmt.pr "  %-40s (bind PCV %a to evaluate)@." class_name
                Perf.Pcv.pp pcv)
        (Perf.Contract.class_names contract)

(* Sharded dataplane: the scalability contract at each shard count
   against the measured parallel drain, plus the dispatcher-affinity
   oracles — the suite `bench scale` runs, with the same gates.  A
   correctness failure (parity, affinity) exits 2; otherwise a
   performance miss, which only a multicore host can report, exits 1. *)
let scale_cmd nf_opt shard_levels packets reps seed json_path =
  let nfs =
    match nf_opt with None -> Dataplane.Scale.default_nfs | Some n -> [ n ]
  in
  let levels = match shard_levels with [] -> None | l -> Some l in
  let s =
    try Dataplane.Scale.run_suite ?levels ~packets ~reps ~seed nfs
    with Invalid_argument msg ->
      Fmt.epr "scale: %s@." msg;
      exit 1
  in
  Fmt.pr "%a@." Dataplane.Scale.pp_suite s;
  (match json_path with
  | None -> ()
  | Some path ->
      Perf.Json.write_file ~path
        (Perf.Json.Obj
           (Dataplane.Scale.suite_json s
           @ [ ("provenance", Perf.Provenance.json ~packets ()) ]));
      Fmt.pr "wrote %s@." path);
  let failures = s.Dataplane.Scale.failures in
  List.iter (Fmt.epr "%s@.") (failures @ s.Dataplane.Scale.misses);
  if failures <> [] then exit 2;
  if s.Dataplane.Scale.misses <> [] then exit 1

let diff_cmd before_path after_path =
  match
    ( Perf.Contract_io.read_contract ~path:before_path,
      Perf.Contract_io.read_contract ~path:after_path )
  with
  | Error msg, _ | _, Error msg ->
      Fmt.epr "%s@." msg;
      exit 1
  | Ok before, Ok after ->
      let d = Perf.Contract_diff.diff before after in
      Fmt.pr "%a@." Perf.Contract_diff.pp d;
      if Perf.Contract_diff.regressions d <> [] then begin
        Fmt.pr "@.performance regressions detected.@.";
        exit 2
      end

let fuzz_t =
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed"; "s" ] ~docv:"SEED"
          ~doc:
            "Master seed.  The campaign is a pure function of \
             --seed/--runs/--oracle, so failures replay exactly.")
  in
  let runs_arg =
    Arg.(
      value & opt int 20
      & info [ "runs"; "n" ] ~docv:"N"
          ~doc:"Rounds to run (each round runs every selected oracle once).")
  in
  let oracle_arg =
    Arg.(
      value & opt_all string []
      & info [ "oracle"; "o" ] ~docv:"NAME"
          ~doc:
            "Oracle to run (repeatable; default: all).  See --list for \
             names.")
  in
  let stateful_flag =
    Arg.(
      value & flag
      & info [ "stateful" ]
          ~doc:
            "Run the stateful model-based oracles instead of the \
             stateless set: per-structure command sequences replayed \
             against purely-functional fakes, with per-command contract \
             bound checks and shrinking to a minimal replayable trace.")
  in
  let list_flag =
    Arg.(value & flag & info [ "list" ] ~doc:"List oracle names and exit.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the outcome (including failing seeds and repro \
             commands) as JSON to $(docv) — what the nightly CI lane \
             uploads as an artifact.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Property-based soundness fuzzing: generative NF/workload \
          testing against differential oracles (contract \
          conservativeness, cache and slice equivalence, obs neutrality), with \
          automatic shrinking; exits 1 on any counterexample.  \
          --stateful switches to the model-based \
          command-sequence oracles over the dslib structures")
    Term.(
      const fuzz_cmd $ seed_arg $ runs_arg $ oracle_arg $ stateful_flag
      $ list_flag $ json_arg)

let contract_t =
  Cmd.v
    (Cmd.info "contract" ~doc:"Derive an NF's performance contract")
    Term.(
      const contract_cmd $ nf_arg $ metric_arg $ json_arg $ trace_arg
      $ stats_flag)

let stats_t =
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the analysis with observability on and print per-phase \
          span timings, pipeline counters and solver-cache statistics")
    Term.(const stats_cmd $ nf_arg $ trace_arg)

let diff_t =
  let pos n doc =
    Arg.(required & Arg.pos n (some file) None & info [] ~docv:"CONTRACT.json" ~doc)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Diff two exported contracts; exits 2 when a bound can have \
          regressed")
    Term.(const diff_cmd $ pos 0 "Baseline contract." $ pos 1 "New contract.")

let predict_t =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CONTRACT.json"
         ~doc:"Contract previously exported with --json.")
  in
  let bindings_arg =
    Arg.(value & opt_all (pair ~sep:'=' string int) []
         & info [ "bind"; "b" ] ~docv:"PCV=VALUE"
         ~doc:"Bind a PCV, e.g. -b e=0 -b t=1 (repeatable).")
  in
  let metric_arg =
    Arg.(value & opt metric_conv Perf.Metric.Instructions
         & info [ "metric" ] ~docv:"METRIC" ~doc:"ic, ma or cycles.")
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Evaluate an exported contract at concrete PCV values")
    Term.(const predict_cmd $ file_arg $ bindings_arg $ metric_arg)

let tune_t =
  let backends_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "backends" ] ~docv:"B1,B2"
          ~doc:
            "Backend axis of the grid (default: every registered backend \
             for the NF's family — dir24_8,trie for the routers, \
             dll,array for the NAT, flow for the flow-table NFs).")
  in
  let capacities_arg =
    Arg.(
      value
      & opt (list int) []
      & info [ "capacities"; "grid" ] ~docv:"N1,N2,N3"
          ~doc:
            "Capacity axis (table capacity, or route-table size for the \
             routers; default: three family-appropriate sizes).")
  in
  let packets_arg =
    Arg.(
      value & opt int 512
      & info [ "packets" ] ~docv:"N" ~doc:"Workload length in packets.")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Workload seed.  The whole run is a pure function of \
             (nf, backends, capacities, packets, seed).")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the grid, Pareto front and winner validation as JSON \
             to $(docv) (e.g. BENCH_tuner.json).")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Contract-guided design-space exploration: price a grid of \
          backend/capacity specs analytically (contracts instantiated \
          with Distiller-harvested PCV distributions — nothing is \
          timed), print the Pareto front over predicted p50/p99 \
          cycles and memory footprint, then confirm the winner by \
          specialized replay of the same workload")
    Term.(
      const tune_cmd $ nf_arg $ backends_arg $ capacities_arg $ packets_arg
      $ seed_arg $ json_arg)

let scale_t =
  let nf_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NF"
          ~doc:
            "NF to shard (default: the scale set — firewall, nat, \
             maglev).")
  in
  let shards_arg =
    Arg.(
      value
      & opt (list int) []
      & info [ "shards" ] ~docv:"N1,N2"
          ~doc:"Shard counts to evaluate (default: 1,2,4).")
  in
  let packets_arg =
    Arg.(
      value & opt int 4096
      & info [ "packets" ] ~docv:"N" ~doc:"Workload length in packets.")
  in
  let reps_arg =
    Arg.(
      value & opt int 3
      & info [ "reps" ] ~docv:"N"
          ~doc:"Timing repetitions per level (best-of, fresh engine each).")
  in
  let seed_arg =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write contracts, measurements and oracle results as JSON to \
             $(docv) (e.g. BENCH_scale.json).")
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Sharded multicore dataplane: steer a workload across \
          shard-local NF replicas (RSS-style flow hashing, symmetric \
          and NAT-port-slice policies), derive the NFork-style \
          scalability contract at each shard count, and validate \
          prediction, bit-level parity and dispatcher affinity; exits \
          2 on any correctness violation and, on a multicore host, 1 \
          on a missed speedup or a prediction error beyond 50% at 2 \
          shards")
    Term.(
      const scale_cmd $ nf_arg $ shards_arg $ packets_arg $ reps_arg
      $ seed_arg $ json_arg)

let topo_t =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TOPOLOGY"
          ~doc:"Built-in topology to analyse (see --list).")
  in
  let list_flag =
    Arg.(
      value & flag & info [ "list" ] ~doc:"List built-in topologies and exit.")
  in
  let class_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "class"; "c" ] ~docv:"CLASS"
          ~doc:
            "Only print the end-to-end bound for this ingress input class, \
             broken down by egress.")
  in
  let replay_arg =
    Arg.(
      value & opt int 0
      & info [ "replay" ] ~docv:"N"
          ~doc:
            "Also replay $(docv) packets of the topology's built-in \
             workload through the specialized per-node engines and check \
             every packet against the composed bound (exit 2 on a \
             violation).")
  in
  Cmd.v
    (Cmd.info "topo"
       ~doc:
         "Derive a network-wide performance contract for a topology of \
          NFs: validate the graph, symbolically execute every node on \
          its predecessor's symbolic output (pruning infeasible route \
          tuples), and print per-(ingress-class, egress) end-to-end \
          bounds — tighter than adding per-NF worst cases")
    Term.(
      const topo_cmd $ name_arg $ list_flag $ class_arg $ replay_arg
      $ metric_arg $ json_arg)

let paths_t =
  Cmd.v
    (Cmd.info "paths" ~doc:"List the feasible paths and per-path costs")
    Term.(const paths_cmd $ nf_arg)

let report_t =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Full analysis report: summary, classes, per-path witnesses")
    Term.(const report_cmd $ nf_arg)

let program_t =
  Cmd.v
    (Cmd.info "program" ~doc:"Print the NF's IR")
    Term.(const program_cmd $ nf_arg)

let validate_t =
  let pcap_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"PCAP"
         ~doc:"Traffic sample to check against the contract.")
  in
  let in_port_arg =
    Arg.(value & opt int 0 & info [ "in-port" ] ~doc:"Ingress port.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Replay a pcap through the production build and check every \
          packet against the derived contract (exit 2 on violation)")
    Term.(const validate_cmd $ nf_arg $ pcap_arg $ in_port_arg)

let () =
  let info =
    Cmd.info "bolt" ~version:"1.0.0"
      ~doc:"Performance contracts for software network functions"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            contract_t; stats_t; predict_t; diff_t; validate_t; fuzz_t;
            tune_t; scale_t; topo_t; paths_t; report_t; program_t;
          ]))
