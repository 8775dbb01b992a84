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

(* ---- One-pass pricing against the two-pass reference -------------------- *)

(* The pricing the pipeline used to do in two passes, kept here as the
   reference: replay the witness on a traced meter, then walk the recorded
   events into a fresh conservative model, splicing in each stateful
   call's contract branch and pricing each PCV loop at its costliest
   iteration times its PCV, the loop's whole span taken out of the
   constant part. *)
let reference_cost ~contracts (path : Symbex.Path.t) ~stubs ~in_port ~now
    program packet =
  let meter = Exec.Meter.create ~trace:true (Hw.Model.conservative ()) in
  ignore
    (Exec.Replay.run ~meter ~stubs ~path_id:path.Symbex.Path.id
       ~decisions:path.Symbex.Path.decisions
       ~loops:
         (List.map
            (fun (l : Symbex.Path.pcv_loop) -> l.Symbex.Path.name)
            path.Symbex.Path.loops)
       ~in_port ~now program packet);
  let m = Hw.Model.conservative () in
  let snap () =
    [| m.Hw.Model.instr_count (); m.Hw.Model.mem_count (); m.Hw.Model.cycles () |]
  in
  let calls = ref path.Symbex.Path.calls and sym = ref Cost_vec.zero in
  let marks = ref [] and loops = ref [] in
  List.iter
    (function
      | Exec.Meter.E_branch _ -> ()
      | Exec.Meter.E_instr (kind, n) -> m.Hw.Model.instr kind n
      | Exec.Meter.E_mem { addr; write; dependent } ->
          m.Hw.Model.mem ~addr ~write ~dependent
      | Exec.Meter.E_call { instance; meth; _ } -> (
          match !calls with
          | (c : Symbex.Path.call) :: rest
            when c.Symbex.Path.instance = instance && c.Symbex.Path.meth = meth
            ->
              calls := rest;
              let dsc =
                Ds_contract.find_exn contracts ~ds_kind:c.Symbex.Path.kind ~meth
              in
              sym :=
                Cost_vec.add !sym
                  (Ds_contract.find_branch_exn dsc ~tag:c.Symbex.Path.tag)
                    .Ds_contract.cost
          | _ -> Alcotest.failf "reference: call %s.%s is off the path" instance meth)
      | Exec.Meter.E_loop_head _ -> marks := []
      | Exec.Meter.E_loop_iter _ -> marks := snap () :: !marks
      | Exec.Meter.E_loop_exit name -> (
          let marks = List.rev (snap () :: !marks) in
          let rec deltas = function
            | a :: (b :: _ as rest) -> Array.map2 ( - ) b a :: deltas rest
            | _ -> []
          in
          match deltas marks with
          | [] -> ()
          | ds ->
              let per_iter = List.fold_left (Array.map2 max) [| 0; 0; 0 |] ds in
              let span =
                Array.map2 ( - ) (List.nth marks (List.length marks - 1))
                  (List.hd marks)
              in
              loops := (Pcv.v name, per_iter, span) :: !loops))
    (Exec.Meter.events meter);
  check_bool "reference: every call of the path met" true (!calls = []);
  let const =
    List.fold_left (fun acc (_, _, span) -> Array.map2 ( - ) acc span) (snap ()) !loops
  in
  Cost_vec.sum
    (Cost_vec.of_consts ~ic:const.(0) ~ma:const.(1) ~cycles:const.(2)
    :: !sym
    :: List.map
         (fun (pcv, it, _) ->
           Cost_vec.make
             ~ic:(Perf_expr.term it.(0) [ pcv ])
             ~ma:(Perf_expr.term it.(1) [ pcv ])
             ~cycles:(Perf_expr.term it.(2) [ pcv ]))
         !loops)

let test_one_pass_matches_reference () =
  let looped = ref 0 and priced = ref 0 in
  List.iter
    (fun (entry : Nf.Registry.entry) ->
      let contracts = entry.Nf.Registry.contracts
      and program = entry.Nf.Registry.program in
      let t = analyze program contracts in
      let memo = Solver.Cache.memo () in
      List.iter
        (fun (a : Bolt.Pipeline.path_analysis) ->
          let path = a.Bolt.Pipeline.path in
          let what =
            Printf.sprintf "%s path %d" entry.Nf.Registry.name path.Symbex.Path.id
          in
          match Bolt.Pipeline.witness memo t.Bolt.Pipeline.engine path with
          | None -> Alcotest.failf "%s: priced without a witness" what
          | Some (_, packet, stubs, in_port, now) ->
              if path.Symbex.Path.loops <> [] then incr looped;
              incr priced;
              let want =
                reference_cost ~contracts path ~stubs ~in_port ~now program packet
              in
              check_bool (what ^ " cost") true (Cost_vec.equal want a.Bolt.Pipeline.cost);
              check_bool (what ^ " output packet") true
                (Net.Packet.equal packet a.Bolt.Pipeline.packet))
        t.Bolt.Pipeline.analyses)
    (Nf.Registry.all ());
  List.iter
    (fun (b : Topo.Builtin.entry) ->
      let t = Topo.Analysis.run b.Topo.Builtin.graph in
      List.iter
        (fun (r : Topo.Analysis.route) ->
          let model = r.Topo.Analysis.witness in
          let packet = Bolt.Pipeline.witness_packet model t.Topo.Analysis.input in
          let total =
            List.fold_left
              (fun acc (st : Topo.Analysis.step) ->
                let entry = List.assoc st.Topo.Analysis.node t.Topo.Analysis.entries in
                let contracts = entry.Nf.Registry.contracts
                and program = entry.Nf.Registry.program
                and path = st.Topo.Analysis.path in
                let stubs =
                  List.map
                    (fun (c : Symbex.Path.call) -> Solver.Model.eval model c.Symbex.Path.ret)
                    path.Symbex.Path.calls
                and in_port = Solver.Model.value model st.Topo.Analysis.in_port
                and now = Solver.Model.value model st.Topo.Analysis.now in
                let copy = Net.Packet.copy packet in
                let _, cost =
                  Bolt.Pipeline.price_witness ~contracts ~path ~stubs ~in_port ~now
                    program copy
                in
                let cost = cost () in
                let want =
                  reference_cost ~contracts path ~stubs ~in_port ~now program packet
                in
                let what =
                  Printf.sprintf "%s step %s/%d" b.Topo.Builtin.graph.Topo.Graph.name
                    st.Topo.Analysis.node path.Symbex.Path.id
                in
                if path.Symbex.Path.loops <> [] then incr looped;
                incr priced;
                check_bool (what ^ " cost") true (Cost_vec.equal want cost);
                check_bool (what ^ " output packet") true (Net.Packet.equal packet copy);
                Cost_vec.add acc want)
              Cost_vec.zero r.Topo.Analysis.steps
          in
          check_bool "route cost is the sum of its steps' reference costs" true
            (Cost_vec.equal total r.Topo.Analysis.cost))
        t.Topo.Analysis.routes)
    (Topo.Builtin.all ());
  check_bool "paths and steps priced" true (!priced > 100);
  check_bool "a PCV loop among them" true (!looped > 0)

(* A pricing mismatch is raised only when the cost is forced, so a replay
   that goes on to diverge still reports the divergence. *)
let test_pricing_mismatch_is_deferred () =
  let contracts = Nf.Nat.contracts () in
  let t = analyze Nf.Nat.program contracts in
  let memo = Solver.Cache.memo () in
  let a =
    List.find
      (fun (a : Bolt.Pipeline.path_analysis) ->
        a.Bolt.Pipeline.path.Symbex.Path.calls <> [])
      t.Bolt.Pipeline.analyses
  in
  let path = a.Bolt.Pipeline.path in
  (* the path's first call renamed: the replay's first call marker
     disagrees with it *)
  let calls =
    match path.Symbex.Path.calls with
    | c :: rest -> { c with Symbex.Path.instance = "elsewhere" } :: rest
    | [] -> assert false
  in
  let price (path : Symbex.Path.t) =
    match Bolt.Pipeline.witness memo t.Bolt.Pipeline.engine path with
    | None -> Alcotest.fail "no witness"
    | Some (_, packet, stubs, in_port, now) ->
        Bolt.Pipeline.price_witness ~contracts ~path ~stubs ~in_port ~now
          Nf.Nat.program packet
  in
  (* one more assumed decision than the replay makes: it diverges at its
     end, after the mismatched call *)
  (match
     price
       { path with Symbex.Path.calls; decisions = path.Symbex.Path.decisions @ [ true ] }
   with
  | exception Bolt.Pipeline.Replay_divergence _ -> ()
  | _ -> Alcotest.fail "a diverging witness must raise Replay_divergence");
  let run, cost = price { path with Symbex.Path.calls } in
  check_bool "the replay itself completes" true
    (Bolt.Pipeline.replay_matches path.Symbex.Path.action run.Exec.Interp.outcome);
  match cost () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "forcing a mismatched cost must raise Failure"

(* ---- Class admission by the witness -------------------------------------- *)

(* Admitting on the witness never changes a verdict: with and without it,
   every path of every registry NF and every route of every built-in
   topology lands in the same classes. *)
let test_witness_admission_is_exact () =
  let by_witness = ref 0 in
  let same what cls ~witness ~predicate ~tags constraints =
    let fast = Symbex.Iclass.admits cls ~witness ~predicate ~tags constraints in
    if Solver.Model.satisfies witness predicate then incr by_witness;
    check_bool what
      (Symbex.Iclass.admits cls ~predicate ~tags constraints)
      fast
  in
  List.iter
    (fun (entry : Nf.Registry.entry) ->
      let t = analyze entry.Nf.Registry.program entry.Nf.Registry.contracts in
      List.iter
        (fun (cls : Symbex.Iclass.t) ->
          let predicate = cls.Symbex.Iclass.predicate t.Bolt.Pipeline.engine in
          List.iter
            (fun (a : Bolt.Pipeline.path_analysis) ->
              let path = a.Bolt.Pipeline.path in
              check_bool "the witness satisfies its path" true
                (Solver.Model.satisfies a.Bolt.Pipeline.witness path.Symbex.Path.constraints);
              same
                (Printf.sprintf "%s %s path %d" entry.Nf.Registry.name
                   cls.Symbex.Iclass.name path.Symbex.Path.id)
                cls ~witness:a.Bolt.Pipeline.witness ~predicate ~tags:path
                path.Symbex.Path.constraints)
            t.Bolt.Pipeline.analyses)
        entry.Nf.Registry.classes)
    (Nf.Registry.all ());
  List.iter
    (fun (b : Topo.Builtin.entry) ->
      let t = Topo.Analysis.run b.Topo.Builtin.graph in
      List.iter
        (fun (cls : Symbex.Iclass.t) ->
          let predicate = cls.Symbex.Iclass.predicate t.Topo.Analysis.ingress_engine in
          List.iter
            (fun (r : Topo.Analysis.route) ->
              check_bool "the witness satisfies its route" true
                (Solver.Model.satisfies r.Topo.Analysis.witness r.Topo.Analysis.constraints);
              same
                (Printf.sprintf "%s %s" b.Topo.Builtin.graph.Topo.Graph.name
                   cls.Symbex.Iclass.name)
                cls ~witness:r.Topo.Analysis.witness ~predicate
                ~tags:(List.hd r.Topo.Analysis.steps).Topo.Analysis.path
                r.Topo.Analysis.constraints)
            t.Topo.Analysis.routes)
        (Topo.Analysis.ingress_classes t))
    (Topo.Builtin.all ());
  check_bool "some admissions need no solve" true (!by_witness > 0)

let suite =
  [
    Alcotest.test_case "pipeline runs on every NF" `Slow test_pipeline_all_nfs;
    Alcotest.test_case "static router loop contract" `Quick
      test_static_router_loop_contract;
    Alcotest.test_case "trie contract (Table 1 shape)" `Quick
      test_trie_contract_shape;
    Alcotest.test_case "nat contract (Table 6 shape)" `Slow
      test_nat_contract_shape;
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
    Alcotest.test_case "one-pass pricing matches the trace walk" `Slow
      test_one_pass_matches_reference;
    Alcotest.test_case "pricing mismatch raised after the replay" `Quick
      test_pricing_mismatch_is_deferred;
    Alcotest.test_case "witness admission is exact" `Slow
      test_witness_admission_is_exact;
  ]
