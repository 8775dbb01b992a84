(* Topologies as first-class programs: graph validation, the generalised
   DAG walk behind Bolt.Compose (golden-pinned to the pre-refactor pair
   and chain results), the built-in topologies' analysis and measured
   soundness, and jobs-level determinism of the network-wide engine. *)

open Perf

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let no_contracts = Ds_contract.library []

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

(* ---- The Compose entry points survive the refactor bit-identically ---- *)

(* Pinned on the pre-topology Bolt.Compose (direct hand-wired pair walk):
   the generalised DAG walk must reproduce these numbers exactly. *)
let test_pair_golden () =
  let c =
    Bolt.Compose.analyze ~models:Bolt.Ds_models.default
      ~up:(Nf.Firewall.program, no_contracts)
      ~down:(Nf.Static_router.program, no_contracts)
      ()
  in
  let w = Bolt.Compose.worst_case c in
  let ev m = Perf_expr.eval_exn [] (Cost_vec.get w m) in
  check_int "pair worst IC" 187 (ev Metric.Instructions);
  check_int "pair worst MA" 29 (ev Metric.Memory_accesses);
  check_int "pair worst cycles" 1787 (ev Metric.Cycles);
  check_int "pairs" 2 (List.length c.Bolt.Compose.pairs);
  check_int "up_only" 8 (List.length c.Bolt.Compose.up_only);
  check_int "unsolved" 0 c.Bolt.Compose.unsolved

let test_chain_golden () =
  let stages =
    [
      { Bolt.Compose.program = Nf.Firewall.program; contracts = no_contracts };
      {
        Bolt.Compose.program = Nf.Policer.program;
        contracts = Nf.Policer.contracts ();
      };
      {
        Bolt.Compose.program = Nf.Static_router.program;
        contracts = no_contracts;
      };
    ]
  in
  let ch = Bolt.Compose.analyze_chain ~models:Bolt.Ds_models.default stages in
  let w = Bolt.Compose.chain_worst ch in
  let ev m = Perf_expr.eval_exn [] (Cost_vec.get w m) in
  check_int "chain worst IC" 271 (ev Metric.Instructions);
  check_int "chain worst MA" 39 (ev Metric.Memory_accesses);
  check_int "chain worst cycles" 3043 (ev Metric.Cycles);
  check_int "tuples" 11 (List.length ch.Bolt.Compose.tuples);
  check_int "chain unsolved" 0 ch.Bolt.Compose.chain_unsolved

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

(* The fw→router topology reproduces the Compose pair bound exactly:
   same walk, new clothes. *)
let test_topology_matches_pair () =
  let t = Topo.Analysis.run ~jobs:1 (Experiments.Exhibits.fw_router_graph ()) in
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
      Topo.Analysis.run ~jobs:1 (Topo.Builtin.find name).Topo.Builtin.graph
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
      Bolt.Compose.naive_add ~up:acc ~down:(Bolt.Pipeline.worst_case pt))
    Cost_vec.zero t.Topo.Analysis.entries

(* Figure 3's property holds network-wide: the jointly analysed bound is
   strictly tighter than adding per-NF worst cases. *)
let test_branch_tighter_than_naive () =
  let t = Topo.Analysis.run ~jobs:1 (Topo.Builtin.find "branch").Topo.Builtin.graph in
  let joint = Topo.Analysis.worst t and naive = naive_sum t in
  let j = bind_all [ joint; naive ] joint Metric.Instructions
  and n = bind_all [ joint; naive ] naive Metric.Instructions in
  check_bool (Printf.sprintf "joint %d < naive %d" j n) true (j < n)

let test_harness_soundness () =
  List.iter
    (fun name ->
      let entry = Topo.Builtin.find name in
      let t = Topo.Analysis.run ~jobs:1 entry.Topo.Builtin.graph in
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

(* Every egress cost is dominated by the topology-wide worst case, and
   class costs by their class's total, which the per-egress counts
   partition. *)
let test_egress_class_domination () =
  let t =
    Topo.Analysis.run ~jobs:1 (Topo.Builtin.find "service_chain").Topo.Builtin.graph
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

(* ---- Determinism under the domain pool -------------------------------- *)

let test_jobs_deterministic () =
  let fingerprint jobs =
    let t =
      Topo.Analysis.run ~jobs (Topo.Builtin.find "branch").Topo.Builtin.graph
    in
    ( List.map
        (fun (r : Topo.Analysis.route) ->
          ( List.map (fun (s : Topo.Analysis.step) -> s.Topo.Analysis.node)
              r.Topo.Analysis.steps,
            Fmt.str "%a" Topo.Analysis.pp_egress r.Topo.Analysis.egress,
            List.length r.Topo.Analysis.constraints,
            Fmt.str "%a" Cost_vec.pp r.Topo.Analysis.cost ))
        t.Topo.Analysis.routes,
      t.Topo.Analysis.unsolved,
      t.Topo.Analysis.infeasible_routes,
      Fmt.str "%a" Contract.pp (Topo.Analysis.contract t) )
  in
  let serial = fingerprint 1 in
  check_bool "jobs:4 identical to jobs:1" true (fingerprint 4 = serial)

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
    Alcotest.test_case "joint beats naive (Figure 3, network-wide)" `Slow
      test_branch_tighter_than_naive;
    Alcotest.test_case "measured replay within bound" `Slow
      test_harness_soundness;
    Alcotest.test_case "egress/class domination" `Slow
      test_egress_class_domination;
    Alcotest.test_case "jobs determinism" `Slow test_jobs_deterministic;
  ]
