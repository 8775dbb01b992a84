(* Topologies as first-class programs: graph validation, the joint walk
   on the historic pair and three-NF chain (golden-pinned), the built-in
   topologies' analysis and measured soundness. *)

open Perf

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ---- Graph validation ------------------------------------------------- *)

let g ?(ingress = "a") nodes edges =
  Topo.Graph.make ~name:"t" ~ingress
    ~nodes:(List.map (fun n -> Topo.Graph.node n Nf.Spec.Firewall) nodes)
    ~edges ()

let has p errs = List.exists p errs

let test_validate_errors () =
  let edge = Topo.Graph.edge in
  let errs =
    Topo.Graph.validate
      (g [ "a"; "b" ]
         [
           edge "a" Topo.Graph.Any (Topo.Graph.Node "b");
           edge "b" Topo.Graph.Any (Topo.Graph.Node "a");
         ])
  in
  check_bool "cycle detected" true
    (has (function Topo.Graph.Cycle _ -> true | _ -> false) errs);
  let errs =
    Topo.Graph.validate
      (g [ "a" ] [ edge "a" Topo.Graph.Any (Topo.Graph.Node "ghost") ])
  in
  check_bool "dangling endpoint" true
    (has
       (function
         | Topo.Graph.Dangling_endpoint { dest = "ghost"; _ } -> true
         | _ -> false)
       errs);
  let errs = Topo.Graph.validate (g [ "a"; "b" ] []) in
  check_bool "unreachable node" true
    (has (function Topo.Graph.Unreachable "b" -> true | _ -> false) errs);
  let errs =
    Topo.Graph.validate
      (g [ "a"; "b" ]
         [
           edge "a" (Topo.Graph.Port 0) (Topo.Graph.Node "b");
           edge "a" (Topo.Graph.Port 0) (Topo.Graph.Exit "out");
         ])
  in
  check_bool "duplicate port" true
    (has
       (function
         | Topo.Graph.Duplicate_port { src = "a"; port = 0 } -> true
         | _ -> false)
       errs);
  let errs =
    Topo.Graph.validate
      (g [ "a"; "b" ]
         [
           edge "a" Topo.Graph.Any (Topo.Graph.Node "b");
           edge "a" (Topo.Graph.Port 1) (Topo.Graph.Exit "out");
         ])
  in
  check_bool "mixed any" true
    (has (function Topo.Graph.Mixed_any "a" -> true | _ -> false) errs);
  let errs = Topo.Graph.validate (g [ "a"; "a" ] []) in
  check_bool "duplicate node" true
    (has (function Topo.Graph.Duplicate_node "a" -> true | _ -> false) errs);
  let errs = Topo.Graph.validate (g ~ingress:"zz" [ "a" ] []) in
  check_bool "unknown ingress" true
    (has (function Topo.Graph.Unknown_ingress "zz" -> true | _ -> false) errs);
  (* validated raises on the lot, and accepts a well-formed graph *)
  (match
     Topo.Graph.validate (g [ "a" ] [ edge "a" Topo.Graph.Any (Topo.Graph.Exit "out") ])
   with
  | [] -> ()
  | errs ->
      Alcotest.failf "well-formed graph rejected: %a"
        Fmt.(list ~sep:(any "; ") Topo.Graph.pp_error)
        errs);
  Alcotest.check_raises "validated raises"
    (Invalid_argument
       "Topo.Graph \"t\": node \"b\" is unreachable from the ingress") (fun () ->
      ignore
        (Topo.Graph.validated ~name:"t" ~ingress:"a"
           ~nodes:
             [
               Topo.Graph.node "a" Nf.Spec.Firewall;
               Topo.Graph.node "b" Nf.Spec.Firewall;
             ]
           ~edges:[] ()))

let test_builtins_validate () =
  List.iter
    (fun (e : Topo.Builtin.entry) ->
      check_bool
        (e.Topo.Builtin.graph.Topo.Graph.name ^ " validates")
        true
        (Topo.Graph.validate e.Topo.Builtin.graph = []))
    (Topo.Builtin.all ())

(* ---- The historic chains, pinned --------------------------------------- *)

let hop_counts (t : Topo.Analysis.t) =
  List.map
    (fun (r : Topo.Analysis.route) -> List.length r.Topo.Analysis.steps)
    t.Topo.Analysis.routes

(* The firewall→router pair: 2 routes through both NFs, 8 that end at the
   firewall. *)
let test_pair_golden () =
  let t = Topo.Analysis.run (Experiments.Exhibits.fw_router_graph ()) in
  let w = Topo.Analysis.worst t in
  let ev m = Perf_expr.eval_exn [] (Cost_vec.get w m) in
  check_int "pair worst IC" 187 (ev Metric.Instructions);
  check_int "pair worst MA" 29 (ev Metric.Memory_accesses);
  check_int "pair worst cycles" 1787 (ev Metric.Cycles);
  let hops = hop_counts t in
  check_int "two-step routes" 2 (List.length (List.filter (( = ) 2) hops));
  check_int "one-step routes" 8 (List.length (List.filter (( = ) 1) hops));
  check_int "unsolved" 0 t.Topo.Analysis.unsolved

let test_chain_golden () =
  let t = Topo.Analysis.run (Experiments.Extensions.chain3_graph ()) in
  let w = Topo.Analysis.worst t in
  let ev m = Perf_expr.eval_exn [] (Cost_vec.get w m) in
  check_int "chain worst IC" 271 (ev Metric.Instructions);
  check_int "chain worst MA" 39 (ev Metric.Memory_accesses);
  check_int "chain worst cycles" 3043 (ev Metric.Cycles);
  check_int "routes" 11 (List.length t.Topo.Analysis.routes);
  check_int "chain unsolved" 0 t.Topo.Analysis.unsolved

(* The exhibits ported onto the topology API keep their exact output —
   what examples/chain_composition.exe prints (Table 5, Figure 3). *)
let test_table5_pinned () =
  check_string "table5 text"
    "(a) firewall \226\128\148 instruction count\n\
    \      No IP options  99\n\
    \      IP Options     54\n\
    \    \n\
     (b) static_router \226\128\148 instruction count\n\
    \      No IP options  88\n\
    \      IP Options     14\194\183n + 91\n\
    \    \n\
     (c) firewall+router chain \226\128\148 instruction count\n\
    \  No IP options     187  (8 compatible path pairs)\n\
    \  IP Options        54  (1 compatible path pairs)\n"
    (Fmt.str "%t" Experiments.Exhibits.table5)

let test_figure3_pinned () =
  check_string "figure3 text"
    "  Firewall          predicted IC    99  measured IC    99   predicted \
     MA   15  measured MA   15\n\
    \  Router            predicted IC   133  measured IC   133   predicted \
     MA   20  measured MA   20\n\
    \  Naive-Add         predicted IC   232  measured IC   187   predicted \
     MA   35  measured MA   29\n\
    \  Composite-Bolt    predicted IC   187  measured IC   187   predicted \
     MA   29  measured MA   29\n"
    (Fmt.str "%t" (fun ppf -> Experiments.Exhibits.figure3 ~packets:64 ppf))

(* The fw→router topology reproduces the historic pair bound exactly, and
   every one of its routes is either a pair or a firewall-only route. *)
let test_topology_matches_pair () =
  let t = Topo.Analysis.run (Experiments.Exhibits.fw_router_graph ()) in
  let w = Topo.Analysis.worst t in
  let ev m = Perf_expr.eval_exn [] (Cost_vec.get w m) in
  check_int "topology worst IC" 187 (ev Metric.Instructions);
  check_int "topology worst MA" 29 (ev Metric.Memory_accesses);
  check_int "topology worst cycles" 1787 (ev Metric.Cycles);
  check_int "routes = pairs + up_only" 10 (List.length t.Topo.Analysis.routes);
  check_int "unsolved" 0 t.Topo.Analysis.unsolved

(* ---- Built-in topologies: pruning, tightness, soundness ---------------- *)

let test_builtin_route_counts () =
  let counts name =
    let t =
      Topo.Analysis.run (Topo.Builtin.find name).Topo.Builtin.graph
    in
    ( List.length t.Topo.Analysis.routes,
      t.Topo.Analysis.infeasible_routes,
      t.Topo.Analysis.unsolved )
  in
  (* port-selected edges genuinely prune: every topology discards route
     tuples whose port constraints are unsatisfiable on the packet bytes *)
  Alcotest.(check (triple int int int))
    "service_chain routes" (18, 13, 0) (counts "service_chain");
  Alcotest.(check (triple int int int))
    "branch routes" (14, 2, 0) (counts "branch");
  Alcotest.(check (triple int int int))
    "failover routes" (30, 25, 0) (counts "failover")

(* Finalize prices a step once per run for each distinct replay input:
   every later route step on the same node path, packet bytes, in_port,
   now and stubs takes the remembered cost.  Pinned per built-in: 18 of
   service_chain's 46 steps, none of branch's 24, 50 of failover's 104. *)
let test_step_memo_hits () =
  let hits name =
    Obs.enable ();
    Obs.reset ();
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.reset ())
      (fun () ->
        ignore (Topo.Analysis.run (Topo.Builtin.find name).Topo.Builtin.graph);
        Obs.Metrics.value (Obs.Metrics.counter "topo.step_memo_hits"))
  in
  check_int "service_chain" 18 (hits "service_chain");
  check_int "branch" 0 (hits "branch");
  check_int "failover" 50 (hits "failover")

let bind_all vecs vec metric =
  let binding =
    List.sort_uniq compare (List.concat_map Cost_vec.pcvs vecs)
    |> List.map (fun p -> (p, 3))
  in
  Perf_expr.eval_exn binding (Cost_vec.get vec metric)

let naive_sum (t : Topo.Analysis.t) =
  List.fold_left
    (fun acc (_, (e : Nf.Registry.entry)) ->
      let pt =
        Bolt.Pipeline.analyze
          ~config:
            Bolt.Pipeline.Config.(
              default |> with_contracts e.Nf.Registry.contracts)
          e.Nf.Registry.program
      in
      Cost_vec.add acc (Bolt.Pipeline.worst_case pt))
    Cost_vec.zero t.Topo.Analysis.entries

(* Figure 3's property holds network-wide: the jointly analysed bound is
   strictly tighter than adding per-NF worst cases. *)
let test_branch_tighter_than_naive () =
  let t = Topo.Analysis.run (Topo.Builtin.find "branch").Topo.Builtin.graph in
  let joint = Topo.Analysis.worst t and naive = naive_sum t in
  let j = bind_all [ joint; naive ] joint Metric.Instructions
  and n = bind_all [ joint; naive ] naive Metric.Instructions in
  check_bool (Printf.sprintf "joint %d < naive %d" j n) true (j < n)

let test_harness_soundness () =
  List.iter
    (fun name ->
      let entry = Topo.Builtin.find name in
      let t = Topo.Analysis.run entry.Topo.Builtin.graph in
      let h = Topo.Harness.create entry.Topo.Builtin.graph in
      let report =
        Topo.Harness.check h
          ~worst:(Topo.Analysis.worst t)
          (entry.Topo.Builtin.workload ~packets:96)
      in
      check_bool (name ^ " replay stays within the composed bound") true
        (report.Topo.Harness.violations = []);
      check_int (name ^ " packets replayed") 96 report.Topo.Harness.packets)
    (Topo.Builtin.names ())

(* [Topo.Harness.check] before its bound was compiled: a binding list per
   transit, evaluated with [Cost_vec.eval_exn]. *)
let reference_check h ~worst stream =
  let pcvs =
    List.sort_uniq Pcv.compare
      (Pcv.[ expired; collisions; traversals; occupancy; scan; ip_options ]
      @ Cost_vec.pcvs worst)
  in
  let violations = ref [] and headroom = ref 100. in
  List.iteri
    (fun index (e : Workload.Stream.entry) ->
      let tr =
        Topo.Harness.transit h ~in_port:e.Workload.Stream.in_port
          ~now:e.Workload.Stream.now e.Workload.Stream.packet
      in
      let binding =
        List.map
          (fun pcv ->
            ( pcv,
              List.fold_left
                (fun acc (hop : Topo.Harness.hop) ->
                  List.fold_left
                    (fun acc (p, v) ->
                      if Pcv.equal p pcv then max acc v else acc)
                    acc hop.Topo.Harness.observations)
                0 tr.Topo.Harness.hops ))
          pcvs
      in
      let check_metric metric measured =
        let bound = Cost_vec.eval_exn binding worst metric in
        if bound < measured then
          violations :=
            {
              Topo.Harness.packet_index = index;
              metric;
              bound;
              measured;
              binding;
            }
            :: !violations
        else if bound > 0 then
          headroom :=
            Float.min !headroom
              (100. *. float_of_int (bound - measured) /. float_of_int bound)
      in
      check_metric Metric.Instructions tr.Topo.Harness.ic;
      check_metric Metric.Memory_accesses tr.Topo.Harness.ma)
    stream;
  {
    Topo.Harness.packets = List.length stream;
    violations = List.rev !violations;
    worst_headroom_pct = !headroom;
  }

(* [worst] with every coefficient halved, so that packets violate it,
   plus monomials of degree 2 and 3 over the observed PCVs, so that
   exponents matter. *)
let shrunk (worst : Cost_vec.t) =
  let shrink p =
    Perf_expr.add
      (Perf_expr.of_terms
         (List.map (fun (m, k) -> (m, k / 2)) (Perf_expr.terms p)))
      (Perf_expr.sum
         Pcv.[ Perf_expr.term 3 [ traversals; traversals ];
               Perf_expr.term 2 [ collisions; collisions; traversals ];
               Perf_expr.term 5 [ expired; expired ] ])
  in
  Cost_vec.make ~ic:(shrink worst.Cost_vec.ic) ~ma:(shrink worst.Cost_vec.ma)
    ~cycles:worst.Cost_vec.cycles

(* The compiled bound reports what the binding-list evaluation reported:
   the same violations with the same bindings, and the same headroom, on
   each built-in's own workload under its composed bound and under a
   shrunk one that packets violate.  The workloads run long enough for
   the NAT and the LB to see collisions and traversals of 1 and 2, at
   one hop or at two. *)
let test_compiled_bound_matches_reference () =
  List.iter
    (fun name ->
      let entry = Topo.Builtin.find name in
      let graph = entry.Topo.Builtin.graph in
      let worst = Topo.Analysis.worst (Topo.Analysis.run graph) in
      List.iter
        (fun (what, worst, violated) ->
          (* harnesses mutate packets: each side replays its own copy *)
          let stream () = entry.Topo.Builtin.workload ~packets:2048 in
          let got =
            Topo.Harness.check (Topo.Harness.create graph) ~worst (stream ())
          and want =
            reference_check (Topo.Harness.create graph) ~worst (stream ())
          in
          let label = Printf.sprintf "%s, %s bound" name what in
          check_bool (label ^ ": violations fire") violated
            (want.Topo.Harness.violations <> []);
          check_int (label ^ ": violations")
            (List.length want.Topo.Harness.violations)
            (List.length got.Topo.Harness.violations);
          check_bool (label ^ ": same violations and bindings") true
            (got.Topo.Harness.violations = want.Topo.Harness.violations);
          check_bool (label ^ ": same headroom") true
            (Float.equal got.Topo.Harness.worst_headroom_pct
               want.Topo.Harness.worst_headroom_pct);
          check_int (label ^ ": packets") want.Topo.Harness.packets
            got.Topo.Harness.packets)
        [ ("composed", worst, false); ("shrunk", shrunk worst, true) ])
    (Topo.Builtin.names ())

(* Every egress cost is dominated by the topology-wide worst case, and
   class costs by their class's total, which the per-egress counts
   partition. *)
let test_egress_class_domination () =
  let t =
    Topo.Analysis.run (Topo.Builtin.find "service_chain").Topo.Builtin.graph
  in
  let worst = Topo.Analysis.worst t in
  List.iter
    (fun eg ->
      let cost, n = Topo.Analysis.egress_cost t eg in
      check_bool "egress has routes" true (n > 0);
      List.iter
        (fun metric ->
          check_bool
            (Fmt.str "worst dominates %a" Topo.Analysis.pp_egress eg)
            true
            (bind_all [ worst; cost ] worst metric
            >= bind_all [ worst; cost ] cost metric))
        [ Metric.Instructions; Metric.Memory_accesses; Metric.Cycles ])
    (Topo.Analysis.egresses t);
  List.iter
    (fun cls ->
      let (total, n), per_egress = Topo.Analysis.class_breakdown t cls in
      let cost, n' = Topo.Analysis.class_cost t cls in
      check_bool "breakdown total is the class cost" true
        (n = n' && Fmt.str "%a" Cost_vec.pp total = Fmt.str "%a" Cost_vec.pp cost);
      check_int "each member route reaches one egress" n
        (List.fold_left (fun acc (_, (_, k)) -> acc + k) 0 per_egress);
      List.iter
        (fun (_, (cost, n)) ->
          check_bool "class@egress has routes" true (n > 0);
          check_bool "class total dominates class@egress" true
            (bind_all [ total; cost ] total Metric.Instructions
            >= bind_all [ total; cost ] cost Metric.Instructions))
        per_egress)
    (Topo.Analysis.ingress_classes t)

let suite =
  [
    Alcotest.test_case "graph validation errors" `Quick test_validate_errors;
    Alcotest.test_case "builtins validate" `Quick test_builtins_validate;
    Alcotest.test_case "pair golden (pre-refactor pin)" `Slow test_pair_golden;
    Alcotest.test_case "chain golden (pre-refactor pin)" `Slow
      test_chain_golden;
    Alcotest.test_case "table5 text pinned" `Slow test_table5_pinned;
    Alcotest.test_case "figure3 text pinned" `Slow test_figure3_pinned;
    Alcotest.test_case "topology = pair bound" `Slow
      test_topology_matches_pair;
    Alcotest.test_case "builtin route counts (pruning)" `Slow
      test_builtin_route_counts;
    Alcotest.test_case "step memo hits" `Quick test_step_memo_hits;
    Alcotest.test_case "joint beats naive (Figure 3, network-wide)" `Slow
      test_branch_tighter_than_naive;
    Alcotest.test_case "measured replay within bound" `Slow
      test_harness_soundness;
    Alcotest.test_case "compiled bound matches the binding-list check" `Slow
      test_compiled_bound_matches_reference;
    Alcotest.test_case "egress/class domination" `Slow
      test_egress_class_domination;
  ]
