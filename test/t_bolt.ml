(* Tests for the BOLT pipeline and chain composition. *)

open Perf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let analyze program contracts =
  Bolt.Pipeline.analyze
    ~config:Bolt.Pipeline.Config.(default |> with_contracts contracts)
    program

let no_contracts = Ds_contract.library []

let test_pipeline_all_nfs () =
  (* every NF in the public catalogue must analyse cleanly *)
  List.iter
    (fun (entry : Nf.Registry.entry) ->
      let t = analyze entry.Nf.Registry.program entry.Nf.Registry.contracts in
      check_bool
        (entry.Nf.Registry.name ^ " has paths")
        true
        (Bolt.Pipeline.path_count t > 0);
      check_int
        (entry.Nf.Registry.name ^ " all paths solved")
        0 t.Bolt.Pipeline.unsolved)
    (Nf.Registry.all ())

let test_trie_contract_shape () =
  let t = analyze (Nf.Router.program `Trie) (Nf.Router.contracts `Trie) in
  let contract = Bolt.Pipeline.contract t ~classes:(Nf.Router.classes `Trie) in
  let valid = Contract.find_exn contract ~class_name:"Valid packets" in
  let ic = Cost_vec.get valid.Contract.cost Metric.Instructions in
  check_int "4l coefficient (paper Table 1)" 4
    (Perf_expr.coefficient ic [ Pcv.prefix_len ]);
  let ma = Cost_vec.get valid.Contract.cost Metric.Memory_accesses in
  check_int "l coefficient" 1 (Perf_expr.coefficient ma [ Pcv.prefix_len ]);
  let invalid = Contract.find_exn contract ~class_name:"Invalid packets" in
  check_bool "invalid path is constant" true
    (Perf_expr.is_const (Cost_vec.get invalid.Contract.cost Metric.Instructions))

let test_nat_contract_shape () =
  (* Table 6: e, e·c and e·t terms present; established < new flows *)
  let t = analyze Nf.Nat.program (Nf.Nat.contracts ()) in
  let contract = Bolt.Pipeline.contract t ~classes:(Nf.Nat.classes ()) in
  let nat3 = Contract.find_exn contract ~class_name:"NAT3" in
  let ic = Cost_vec.get nat3.Contract.cost Metric.Instructions in
  check_bool "e term" true (Perf_expr.coefficient ic [ Pcv.expired ] > 0);
  check_bool "e*c term" true
    (Perf_expr.coefficient ic [ Pcv.expired; Pcv.collisions ] > 0);
  check_bool "e*t term" true
    (Perf_expr.coefficient ic [ Pcv.expired; Pcv.traversals ] > 0);
  let quiet = Pcv.[ (expired, 0); (collisions, 0); (traversals, 1) ] in
  let at cls =
    Result.get_ok (Contract.predict contract ~class_name:cls quiet Metric.Instructions)
  in
  check_bool "drop is cheapest" true (at "NAT4" < at "NAT3");
  check_bool "established < new" true (at "NAT3" < at "NAT2")

let test_static_router_loop_contract () =
  let t = analyze Nf.Static_router.program no_contracts in
  let contract =
    Bolt.Pipeline.contract t ~classes:(Nf.Static_router.classes ())
  in
  let options = Contract.find_exn contract ~class_name:"IP Options" in
  let ic = Cost_vec.get options.Contract.cost Metric.Instructions in
  check_bool "linear in n (Table 5b)" true
    (Perf_expr.coefficient ic [ Pcv.ip_options ] > 0);
  let fast = Contract.find_exn contract ~class_name:"No IP options" in
  check_bool "fast path constant" true
    (Perf_expr.is_const (Cost_vec.get fast.Contract.cost Metric.Instructions))

let test_bridge_rehash_cliff () =
  let t = analyze Nf.Bridge.program (Nf.Bridge.contracts ()) in
  let contract = Bolt.Pipeline.contract t ~classes:(Nf.Bridge.table4_classes ()) in
  let at name =
    Contract.find_exn contract ~class_name:name |> fun e ->
    Perf_expr.const_part (Cost_vec.get e.Contract.cost Metric.Instructions)
  in
  check_bool "rehash is a cliff (paper Table 4)" true
    (at "Unknown Source MAC; Rehashing"
    > 10 * at "Unknown Source MAC; No Rehashing");
  check_bool "known < unknown" true
    (at "Known Source MAC" < at "Unknown Source MAC; No Rehashing")

let test_worst_case_dominates_classes () =
  let t = analyze Nf.Maglev.program (Nf.Maglev.contracts ()) in
  let worst = Bolt.Pipeline.worst_case t in
  List.iter
    (fun cls ->
      let cost, _ = Bolt.Pipeline.class_cost t cls in
      check_bool "worst dominates class" true
        (Perf_expr.dominates
           (Cost_vec.get worst Metric.Instructions)
           (Cost_vec.get cost Metric.Instructions)))
    (Nf.Maglev.classes ())

let test_class_coalescing_dominates_members () =
  (* the defining property of coalescing: a class's expression dominates
     every member path's, monomial-wise, in all metrics *)
  List.iter
    (fun (program, contracts, classes) ->
      let t = analyze program contracts in
      List.iter
        (fun cls ->
          let cost, _ = Bolt.Pipeline.class_cost t cls in
          List.iter
            (fun (a : Bolt.Pipeline.path_analysis) ->
              List.iter
                (fun metric ->
                  check_bool "class dominates member" true
                    (Perf_expr.dominates
                       (Cost_vec.get cost metric)
                       (Cost_vec.get a.Bolt.Pipeline.cost metric)))
                Metric.all)
            (Bolt.Pipeline.class_members t cls))
        classes)
    [
      (Nf.Nat.program, Nf.Nat.contracts (), Nf.Nat.classes ());
      (Nf.Bridge.program, Nf.Bridge.contracts (), Nf.Bridge.classes ());
      (Nf.Maglev.program, Nf.Maglev.contracts (), Nf.Maglev.classes ());
    ]

let test_witness_packets_are_classy () =
  (* witnesses of class member paths satisfy the class's packet
     predicate concretely *)
  let t = analyze (Nf.Router.program `Trie) (Nf.Router.contracts `Trie) in
  let classes = Nf.Router.classes `Trie in
  let invalid = List.nth classes 0 in
  List.iter
    (fun (a : Bolt.Pipeline.path_analysis) ->
      check_bool "invalid witness is non-IPv4" true
        (Net.Ethernet.get_ethertype a.Bolt.Pipeline.packet <> 0x0800))
    (Bolt.Pipeline.class_members t invalid)

let test_compose_chain () =
  let t = Topo.Analysis.run (Experiments.Exhibits.fw_router_graph ()) in
  let routes = t.Topo.Analysis.routes in
  let hops (r : Topo.Analysis.route) = List.length r.Topo.Analysis.steps in
  check_bool "pairs exist" true (List.exists (fun r -> hops r = 2) routes);
  check_bool "drop paths retained" true
    (List.exists (fun r -> hops r = 1) routes);
  (* no router path behind the firewall processes IP options: the
     expensive branch is provably unreachable *)
  List.iter
    (fun (r : Topo.Analysis.route) ->
      match r.Topo.Analysis.steps with
      | [ _; router ] ->
          check_bool "no options loop behind the firewall" true
            (router.Topo.Analysis.path.Symbex.Path.loops = [])
      | _ -> ())
    routes;
  (* the composed bound beats naive addition *)
  let fw = analyze Nf.Firewall.program no_contracts in
  let rt = analyze Nf.Static_router.program no_contracts in
  let naive =
    Cost_vec.add (Bolt.Pipeline.worst_case fw) (Bolt.Pipeline.worst_case rt)
  in
  let composed = Topo.Analysis.worst t in
  let binding = [ (Pcv.ip_options, 3) ] in
  let ev vec = Perf_expr.eval_exn binding (Cost_vec.get vec Metric.Instructions) in
  check_bool "composition is tighter (Figure 3)" true
    (ev composed < ev naive)

let test_compose_soundness_against_measured_chain () =
  let chain = Experiments.Exhibits.chain_experiment ~packets:64 () in
  let binding = [ (Pcv.ip_options, 3) ] in
  let ev vec metric = Perf_expr.eval_exn binding (Cost_vec.get vec metric) in
  check_bool "composite bounds measured IC" true
    (ev chain.Experiments.Exhibits.composite Metric.Instructions
    >= chain.Experiments.Exhibits.measured_chain.Experiments.Harness.ic);
  check_bool "composite bounds measured MA" true
    (ev chain.Experiments.Exhibits.composite Metric.Memory_accesses
    >= chain.Experiments.Exhibits.measured_chain.Experiments.Harness.ma);
  check_bool "composite bounds measured cycles" true
    (ev chain.Experiments.Exhibits.composite Metric.Cycles
    >= chain.Experiments.Exhibits.measured_chain.Experiments.Harness.cycles)

let test_parallel_analyze_deterministic () =
  (* analyze ~jobs:n must be bit-identical to the serial pipeline:
     same contract, same witnesses, same costs, in the same path order *)
  let fingerprint jobs (program, contracts, classes) =
    let t =
      Bolt.Pipeline.analyze
        ~config:
          Bolt.Pipeline.Config.(
            default |> with_contracts contracts |> with_jobs jobs)
        program
    in
    let witnesses =
      List.map
        (fun (a : Bolt.Pipeline.path_analysis) ->
          (Net.Packet.to_bytes a.packet, a.stubs, a.in_port, a.now, a.cost))
        t.Bolt.Pipeline.analyses
    in
    ( Fmt.str "%a" Contract.pp (Bolt.Pipeline.contract t ~classes),
      witnesses,
      t.Bolt.Pipeline.unsolved )
  in
  List.iter
    (fun (name, case) ->
      let serial = fingerprint 1 case in
      List.iter
        (fun jobs ->
          check_bool
            (Printf.sprintf "%s jobs:%d identical to serial" name jobs)
            true
            (fingerprint jobs case = serial))
        [ 3; 4 ])
    [
      ("nat", (Nf.Nat.program, Nf.Nat.contracts (), Nf.Nat.classes ()));
      ( "maglev",
        (Nf.Maglev.program, Nf.Maglev.contracts (), Nf.Maglev.classes ()) );
    ]

let suite =
  [
    Alcotest.test_case "pipeline runs on every NF" `Slow test_pipeline_all_nfs;
    Alcotest.test_case "parallel analyze is deterministic" `Slow
      test_parallel_analyze_deterministic;
    Alcotest.test_case "trie contract (Table 1 shape)" `Quick
      test_trie_contract_shape;
    Alcotest.test_case "nat contract (Table 6 shape)" `Slow
      test_nat_contract_shape;
    Alcotest.test_case "static router loop contract" `Quick
      test_static_router_loop_contract;
    Alcotest.test_case "bridge rehash cliff (Table 4)" `Slow
      test_bridge_rehash_cliff;
    Alcotest.test_case "worst case dominates classes" `Slow
      test_worst_case_dominates_classes;
    Alcotest.test_case "coalescing dominates members" `Slow
      test_class_coalescing_dominates_members;
    Alcotest.test_case "witnesses satisfy their class" `Quick
      test_witness_packets_are_classy;
    Alcotest.test_case "chain composition (Figure 3)" `Slow test_compose_chain;
    Alcotest.test_case "chain soundness vs measured" `Slow
      test_compose_soundness_against_measured_chain;
  ]
