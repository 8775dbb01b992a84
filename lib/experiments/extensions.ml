open Perf

let analyze ?cycle_model program contracts =
  let config =
    match cycle_model with
    | None -> Bolt.Pipeline.Config.(default |> with_contracts contracts)
    | Some cm ->
        Bolt.Pipeline.Config.(
          default |> with_contracts contracts |> with_cycle_model cm)
  in
  Bolt.Pipeline.analyze ~config program

let no_contracts = Ds_contract.library []
let freq_hz = 3_300_000_000

(* ---- Throughput ------------------------------------------------------- *)

let observed_pps ~dss program stream =
  let hw = Hw.Model.realistic () in
  let result = Distiller.Run.run ~hw ~dss program stream in
  let total =
    List.fold_left ( + ) 0 (Distiller.Run.latencies result)
  in
  let n = Distiller.Run.count result in
  if total = 0 then 0.
  else float_of_int freq_hz /. (float_of_int total /. float_of_int n)

let throughput_table ppf =
  Fmt.pf ppf
    "Guaranteed throughput floors from the cycle contracts (single core \
     @ %.1f GHz):@.@."
    (float_of_int freq_hz /. 1e9);
  let nat = analyze Nf.Nat.program (Nf.Nat.contracts ()) in
  let classes =
    List.filter
      (fun c -> c.Symbex.Iclass.name <> "NAT1")
      (Nf.Nat.classes ())
  in
  Fmt.pf ppf "  NAT, unbatched I/O:@.";
  List.iter
    (fun b -> Fmt.pf ppf "    %a@." Bolt.Throughput.pp b)
    (Bolt.Throughput.of_classes ~freq_hz nat classes);
  Fmt.pf ppf "  NAT, RX/TX batches of 32:@.";
  List.iter
    (fun b -> Fmt.pf ppf "    %a@." Bolt.Throughput.pp b)
    (Bolt.Throughput.of_classes ~freq_hz ~batch:32 nat classes);
  let lpm =
    analyze (Nf.Router.program `Dir24_8) (Nf.Router.contracts `Dir24_8)
  in
  Fmt.pf ppf "  LPM router, unbatched I/O:@.";
  List.iter
    (fun b -> Fmt.pf ppf "    %a@." Bolt.Throughput.pp b)
    (Bolt.Throughput.of_classes ~freq_hz lpm (Nf.Router.classes `Dir24_8));
  (* observed: established-flow traffic through the production NAT *)
  let rng = Workload.Prng.create ~seed:17 in
  let dss, _ = Nf.Nat.setup (Dslib.Layout.allocator ()) in
  let flows = Workload.Gen.distinct_flows rng 256 in
  let packets () = Workload.Gen.packets_of_flows flows in
  let warm =
    Workload.Stream.constant_rate ~in_port:0 ~start:1_000_000 ~gap:100
      (packets ())
  in
  let measured =
    Workload.Stream.constant_rate ~in_port:0 ~start:1_200_000 ~gap:100
      (packets () @ packets () @ packets ())
  in
  let _ = Distiller.Run.run ~hw:(Hw.Model.null ()) ~dss Nf.Nat.program warm in
  let pps = observed_pps ~dss Nf.Nat.program measured in
  (* the same traffic through the batched run-to-completion loop *)
  let batched_pps =
    let hw = Hw.Model.realistic () in
    let meter = Exec.Meter.create hw in
    let rec bursts acc = function
      | [] -> acc
      | entries ->
          let take = min 32 (List.length entries) in
          let burst = List.filteri (fun i _ -> i < take) entries in
          let rest = List.filteri (fun i _ -> i >= take) entries in
          hw.Hw.Model.boundary [ (Exec.Interp.packet_base, 2048) ];
          let runs =
            Exec.Interp.run_batch ~meter ~mode:(Exec.Interp.Production dss)
              Nf.Nat.program
              (List.map
                 (fun (e : Workload.Stream.entry) ->
                   ( e.Workload.Stream.packet,
                     e.Workload.Stream.in_port,
                     e.Workload.Stream.now ))
                 burst)
          in
          bursts (acc @ runs) rest
    in
    let runs = bursts [] measured in
    let total =
      List.fold_left (fun acc r -> acc + r.Exec.Interp.cycles) 0 runs
    in
    if total = 0 then 0.
    else
      float_of_int freq_hz
      /. (float_of_int total /. float_of_int (List.length runs))
  in
  Fmt.pf ppf
    "@.  observed (production NAT, established flows): %.0f pps \
     unbatched,@.  %.0f pps with 32-packet bursts — the floors hold with \
     the same@.  conservatism factor as the cycle bound itself.@."
    pps batched_pps

(* ---- Three-NF chain ---------------------------------------------------- *)

(* The chain as a topology: [Any] edges follow every forward, so each
   route's joint constraints are those of its last node's path. *)
let chain3_graph () =
  Topo.Graph.validated ~name:"chain3"
    ~description:"firewall -> policer -> static router" ~ingress:"firewall"
    ~nodes:
      [
        Topo.Graph.node "firewall" Nf.Spec.Firewall;
        Topo.Graph.node "policer" (Nf.Spec.Policer Nf.Policer.default_config);
        Topo.Graph.node "router" Nf.Spec.Static_router;
      ]
    ~edges:
      [
        Topo.Graph.edge "firewall" Topo.Graph.Any (Topo.Graph.Node "policer");
        Topo.Graph.edge "policer" Topo.Graph.Any (Topo.Graph.Node "router");
      ]
    ()

let chain3 ppf =
  let chain = Topo.Analysis.run (chain3_graph ()) in
  let worst = Topo.Analysis.worst chain in
  let naive =
    Cost_vec.sum
      [
        Bolt.Pipeline.worst_case (analyze Nf.Firewall.program no_contracts);
        Bolt.Pipeline.worst_case
          (analyze Nf.Policer.program (Nf.Policer.contracts ()));
        Bolt.Pipeline.worst_case
          (analyze Nf.Static_router.program no_contracts);
      ]
  in
  let binding = [ (Pcv.ip_options, 3) ] in
  let ic vec = Perf_expr.eval_exn binding (Cost_vec.get vec Metric.Instructions) in
  Fmt.pf ppf
    "firewall -> policer -> static router, analysed jointly (§3.4 \
     generalised to chains):@.@.";
  Fmt.pf ppf "  feasible path tuples: %d (unsolved: %d)@."
    (List.length chain.Topo.Analysis.routes)
    chain.Topo.Analysis.unsolved;
  Fmt.pf ppf "  joint worst case:  IC %d@." (ic worst);
  Fmt.pf ppf "  naive addition:    IC %d@." (ic naive);
  Fmt.pf ppf "  (%.0f%% tighter: options packets die at the firewall, \
              out-of-profile@.   packets die at the policer — neither \
              reaches the router's loop)@."
    (100.
    *. float_of_int (ic naive - ic worst)
    /. float_of_int (max 1 (ic naive)));
  (* options packets never reach the router in any feasible tuple *)
  let option_tuples =
    Topo.Analysis.class_cost chain
      (Symbex.Iclass.make ~name:"IP options"
         ~predicate:(fun r ->
           [
             Solver.Constr.ge
               (Solver.Linexpr.sym
                  (Symbex.Spacket.byte_sym r.Symbex.Engine.input 14))
               (Solver.Linexpr.const 0x46);
           ])
         ())
  in
  Fmt.pf ppf
    "  packets with IP options: bound IC %d over %d compatible tuples@."
    (Perf_expr.eval_exn binding
       (Cost_vec.get (fst option_tuples) Metric.Instructions))
    (snd option_tuples)

(* ---- Ablation: class coalescing ---------------------------------------- *)

let ablation_coalescing ppf =
  Fmt.pf ppf
    "Class coalescing (monomial-wise max over member paths) trades \
     precision@.for legibility — one row instead of one per path.  At \
     each class's PCV@.bindings:@.@.";
  let t = analyze Nf.Nat.program (Nf.Nat.contracts ()) in
  Fmt.pf ppf "  %-6s %7s %10s %14s %14s@." "class" "paths" "coalesced"
    "tightest path" "loosest path";
  List.iter
    (fun cls ->
      let members = Bolt.Pipeline.class_members t cls in
      let evals =
        List.map
          (fun (a : Bolt.Pipeline.path_analysis) ->
            Perf_expr.eval_exn cls.Symbex.Iclass.bindings
              (Cost_vec.get a.Bolt.Pipeline.cost Metric.Instructions))
          members
      in
      match Bolt.Pipeline.predict t cls Metric.Instructions with
      | Error _ -> ()
      | Ok coalesced ->
          Fmt.pf ppf "  %-6s %7d %10d %14d %14d@." cls.Symbex.Iclass.name
            (List.length members) coalesced
            (List.fold_left min max_int evals)
            (List.fold_left max 0 evals))
    (Nf.Nat.classes ());
  Fmt.pf ppf
    "@.  The coalesced bound can exceed even the loosest member (it \
     combines the@.  worst coefficient of every monomial), which is the \
     §3.2 trade-off: fewer,@.  simpler rows at a small precision cost.@."

(* ---- Ablation: hardware model ------------------------------------------ *)

let ablation_hw_model ppf =
  Fmt.pf ppf
    "What the conservative model's L1 locality tracking buys (cycles \
     bounds@.at each class's bindings; dram_only prices every access at \
     DRAM):@.@.";
  let with_l1 = analyze Nf.Nat.program (Nf.Nat.contracts ()) in
  let without =
    analyze ~cycle_model:Hw.Model.dram_only Nf.Nat.program
      (Nf.Nat.contracts ())
  in
  Fmt.pf ppf "  %-6s %14s %14s %9s@." "class" "with L1 proof" "dram-only"
    "savings";
  List.iter
    (fun cls ->
      match
        ( Bolt.Pipeline.predict with_l1 cls Metric.Cycles,
          Bolt.Pipeline.predict without cls Metric.Cycles )
      with
      | Ok a, Ok b ->
          Fmt.pf ppf "  %-6s %14d %14d %8.1f%%@." cls.Symbex.Iclass.name a b
            (100. *. float_of_int (b - a) /. float_of_int (max 1 b))
      | _ -> ())
    (Nf.Nat.classes ())

(* ---- Ablation: exact linearization -------------------------------------- *)

let ablation_linearization ppf =
  Fmt.pf ppf
    "What the exact mask/shift/division linearization buys: without it, \
     derived@.header fields (like the IHL nibble) detach from the packet \
     bytes, so input@.classes cannot separate the paths they guard.@.@.";
  let run exact =
    Symbex.Value.with_linearization exact (fun () ->
        let t = analyze Nf.Static_router.program no_contracts in
        let members cls =
          List.length (Bolt.Pipeline.class_members t cls)
        in
        let per_class = List.map members (Nf.Static_router.classes ()) in
        (Bolt.Pipeline.path_count t, per_class))
  in
  let paths_on, classes_on = run true in
  let paths_off, classes_off = run false in
  Fmt.pf ppf "  static router, exact linearization ON:  %d paths; class \
              members %a@."
    paths_on
    Fmt.(list ~sep:(any "/") int)
    classes_on;
  Fmt.pf ppf "  static router, exact linearization OFF: %d paths; class \
              members %a@."
    paths_off
    Fmt.(list ~sep:(any "/") int)
    classes_off;
  Fmt.pf ppf
    "@.  OFF admits infeasible paths and swells each class with paths the \
     predicate@.  can no longer exclude — the class bound degrades to \
     near worst-case.@."
