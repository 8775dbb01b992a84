open Perf

let analyze program contracts =
  Bolt.Pipeline.analyze
    ~config:Bolt.Pipeline.Config.(default |> with_contracts contracts)
    program

let table1 ppf =
  Fmt.pf ppf "%a@." (Contract.pp_metric Metric.Instructions)
    Nf.Router.stylized_contract;
  Fmt.pf ppf "%a@." (Contract.pp_metric Metric.Memory_accesses)
    Nf.Router.stylized_contract;
  let t = analyze (Nf.Router.program `Trie) (Nf.Router.contracts `Trie) in
  let full = Bolt.Pipeline.contract t ~classes:(Nf.Router.classes `Trie) in
  Fmt.pf ppf
    "@.full-stack contract derived by BOLT (driver + framework included):@.";
  Fmt.pf ppf "%a@." (Contract.pp_metric Metric.Instructions) full;
  Fmt.pf ppf "%a@." (Contract.pp_metric Metric.Memory_accesses) full

let table2 ppf =
  List.iter
    (fun c -> Fmt.pf ppf "%a@." Ds_contract.pp c)
    Dslib.Lpm_trie.Recipe.contract

let table4 ppf =
  let t = analyze Nf.Bridge.program (Nf.Bridge.contracts ()) in
  let contract =
    Bolt.Pipeline.contract t ~classes:(Nf.Bridge.table4_classes ())
  in
  Fmt.pf ppf "%a@." (Contract.pp_metric Metric.Instructions) contract

let table6 ppf =
  let t = analyze Nf.Nat.program (Nf.Nat.contracts ()) in
  let contract =
    Bolt.Pipeline.contract t ~classes:(Nf.Nat.table6_classes ())
  in
  Fmt.pf ppf "%a@." (Contract.pp_metric Metric.Instructions) contract

(* ---- Firewall + router chain (Table 5, Figure 3) --------------------- *)

type chain = {
  firewall_worst : Cost_vec.t;
  router_worst : Cost_vec.t;
  naive_add : Cost_vec.t;
  composite : Cost_vec.t;
  measured_firewall : Harness.measurement;
  measured_router : Harness.measurement;
  measured_chain : Harness.measurement;
}

let no_contracts = Ds_contract.library []

(* The firewall→router pair (Table 5c, Figure 3) as a topology: the
   [Any] edge follows the forward regardless of port. *)
let fw_router_graph () =
  Topo.Graph.validated ~name:"fw_router"
    ~description:
      "edge firewall in front of the options-pricing static router \
       (Table 5c, Figure 3)"
    ~ingress:"firewall"
    ~nodes:
      [
        Topo.Graph.node "firewall" Nf.Spec.Firewall;
        Topo.Graph.node "router" Nf.Spec.Static_router;
      ]
    ~edges:
      [ Topo.Graph.edge "firewall" Topo.Graph.Any (Topo.Graph.Node "router") ]
    ()

let router_only_graph () =
  Topo.Graph.validated ~name:"router_only"
    ~description:"the static router measured alone" ~ingress:"router"
    ~nodes:[ Topo.Graph.node "router" Nf.Spec.Static_router ]
    ~edges:[] ()

let chain_mix ~packets rng =
  List.init packets (fun i ->
      let src_ip = Net.Ipv4.addr_of_parts 10 0 0 ((i mod 200) + 1) in
      let dst_ip = Net.Ipv4.addr_of_parts 93 184 (i mod 256) 7 in
      let options =
        if Workload.Prng.bool rng 0.3 then 1 + Workload.Prng.below rng 3
        else 0
      in
      if options = 0 then
        Net.Build.udp ~src_ip ~dst_ip ~src_port:5000 ~dst_port:80 ()
      else Net.Build.ipv4_with_options ~options ~src_ip ~dst_ip ())

let max_measure sel transits =
  List.fold_left
    (fun (acc : Harness.measurement) tr ->
      let ic, ma, cycles = sel tr in
      {
        Harness.ic = max acc.Harness.ic ic;
        ma = max acc.Harness.ma ma;
        cycles = max acc.Harness.cycles cycles;
      })
    { Harness.ic = 0; ma = 0; cycles = 0 }
    transits

let of_hop (h : Topo.Harness.hop) =
  (h.Topo.Harness.ic, h.Topo.Harness.ma, h.Topo.Harness.cycles)

let of_transit (tr : Topo.Harness.transit) =
  (tr.Topo.Harness.ic, tr.Topo.Harness.ma, tr.Topo.Harness.cycles)

let chain_experiment ?(packets = 512) () =
  let fw = analyze Nf.Firewall.program no_contracts in
  let rt = analyze Nf.Static_router.program no_contracts in
  let topo = Topo.Analysis.run (fw_router_graph ()) in
  let firewall_worst = Bolt.Pipeline.worst_case fw in
  let router_worst = Bolt.Pipeline.worst_case rt in
  let rng = Workload.Prng.create ~seed:11 in
  let mix = chain_mix ~packets rng in
  (* run the chain in production: the harness pushes each packet through
     the firewall and on through the router when forwarded *)
  let chain_harness =
    Topo.Harness.create ~hw:(Hw.Model.realistic ()) (fw_router_graph ())
  in
  let runs = List.map (Topo.Harness.transit chain_harness) mix in
  (* the router measured alone sees the raw mix (including options) *)
  let router_alone =
    let h =
      Topo.Harness.create ~hw:(Hw.Model.realistic ()) (router_only_graph ())
    in
    List.map (Topo.Harness.transit h) mix
  in
  {
    firewall_worst;
    router_worst;
    naive_add = Cost_vec.add firewall_worst router_worst;
    composite = Topo.Analysis.worst topo;
    measured_firewall =
      max_measure
        (fun tr -> of_hop (List.hd tr.Topo.Harness.hops))
        runs;
    measured_router = max_measure of_transit router_alone;
    measured_chain = max_measure of_transit runs;
  }

let table5 ppf =
  let fw = analyze Nf.Firewall.program no_contracts in
  let rt = analyze Nf.Static_router.program no_contracts in
  let fw_contract =
    Bolt.Pipeline.contract fw ~classes:(Nf.Firewall.classes ())
  in
  let rt_contract =
    Bolt.Pipeline.contract rt ~classes:(Nf.Static_router.classes ())
  in
  Fmt.pf ppf "(a) %a@." (Contract.pp_metric Metric.Instructions) fw_contract;
  Fmt.pf ppf "(b) %a@." (Contract.pp_metric Metric.Instructions) rt_contract;
  let topo = Topo.Analysis.run (fw_router_graph ()) in
  Fmt.pf ppf "(c) firewall+router chain — instruction count@.";
  List.iter
    (fun cls ->
      let cost, n = Topo.Analysis.class_cost topo cls in
      Fmt.pf ppf "  %-16s  %a  (%d compatible path pairs)@."
        cls.Symbex.Iclass.name Perf_expr.pp
        (Cost_vec.get cost Metric.Instructions)
        n)
    (Nf.Firewall.classes ())

let bind_n = [ (Pcv.ip_options, 3) ]

let figure3 ?packets ppf =
  let c = chain_experiment ?packets () in
  let ev vec metric = Perf_expr.eval_exn bind_n (Cost_vec.get vec metric) in
  let line label vec (m : Harness.measurement) =
    Fmt.pf ppf "  %-16s  predicted IC %5d  measured IC %5d   predicted MA \
                %4d  measured MA %4d@."
      label
      (ev vec Metric.Instructions)
      m.Harness.ic
      (ev vec Metric.Memory_accesses)
      m.Harness.ma
  in
  line "Firewall" c.firewall_worst c.measured_firewall;
  line "Router" c.router_worst c.measured_router;
  line "Naive-Add" c.naive_add c.measured_chain;
  line "Composite-Bolt" c.composite c.measured_chain
