type hop = {
  node : string;
  outcome : Exec.Interp.outcome;
  ic : int;
  ma : int;
  cycles : int;
  observations : (Perf.Pcv.t * int) list;
}

type transit = {
  hops : hop list;
  egress : Analysis.egress;
  ic : int;
  ma : int;
  cycles : int;
}

type station = {
  s_name : string;
  engine : Exec.Specialize.t;
  meter : Exec.Meter.t;
  ports : (int * Graph.target) list;  (** declared Port edges *)
  any : Graph.target option;
}

type t = { g : Graph.t; hw : Hw.Model.t; stations : (string * station) list }

let create ?hw (g : Graph.t) =
  (match Graph.validate g with
  | [] -> ()
  | errs ->
      invalid_arg
        (Fmt.str "Topo.Harness.create %S: %a" g.Graph.name
           Fmt.(list ~sep:(any "; ") Graph.pp_error)
           errs));
  let hw = match hw with Some hw -> hw | None -> Hw.Model.realistic () in
  let stations =
    List.map
      (fun (n : Graph.node) ->
        let entry = Nf.Registry.of_spec n.Graph.spec in
        let meter = Exec.Meter.create hw in
        let engine, _env = Nf.Registry.specialize entry ~meter in
        let out = Graph.out_edges g n.Graph.name in
        let ports =
          List.filter_map
            (fun (e : Graph.edge) ->
              match e.Graph.sel with
              | Graph.Port p -> Some (p, e.Graph.target)
              | Graph.Any -> None)
            out
        in
        let any =
          List.find_map
            (fun (e : Graph.edge) ->
              match e.Graph.sel with
              | Graph.Any -> Some e.Graph.target
              | Graph.Port _ -> None)
            out
        in
        (n.Graph.name, { s_name = n.Graph.name; engine; meter; ports; any }))
      g.Graph.nodes
  in
  { g; hw; stations }

let graph t = t.g

let specialized t =
  List.map
    (fun (name, s) -> (name, Exec.Specialize.specialized s.engine))
    t.stations

let transit t ?(in_port = 0) ?(now = 1_000_000) packet =
  t.hw.Hw.Model.boundary [ (Exec.Interp.packet_base, 2048) ];
  let rec hop_at name in_port hops_rev =
    let s = List.assoc name t.stations in
    Exec.Meter.reset_observations s.meter;
    let run = Exec.Specialize.run s.engine ~in_port ~now packet in
    let hop =
      {
        node = name;
        outcome = run.Exec.Interp.outcome;
        ic = run.Exec.Interp.ic;
        ma = run.Exec.Interp.ma;
        cycles = run.Exec.Interp.cycles;
        observations = Exec.Meter.observations s.meter;
      }
    in
    let hops_rev = hop :: hops_rev in
    let stop egress = (hops_rev, egress) in
    match run.Exec.Interp.outcome with
    | Exec.Interp.Dropped -> stop (Analysis.Dropped name)
    | Exec.Interp.Flooded -> stop (Analysis.Flooded name)
    | Exec.Interp.Sent p -> (
        let target =
          match List.assoc_opt p s.ports with
          | Some _ as tgt -> tgt
          | None -> s.any
        in
        match target with
        | Some (Graph.Node next) -> hop_at next p hops_rev
        | Some (Graph.Exit label) ->
            stop (Analysis.Exited { node = name; label })
        | None ->
            stop (Analysis.Exited { node = name; label = Bolt.Dag.default_exit }))
  in
  let hops_rev, egress = hop_at t.g.Graph.ingress in_port [] in
  let hops = List.rev hops_rev in
  let sum f = List.fold_left (fun acc h -> acc + f h) 0 hops in
  {
    hops;
    egress;
    ic = sum (fun h -> h.ic);
    ma = sum (fun h -> h.ma);
    cycles = sum (fun h -> h.cycles);
  }

let replay t stream =
  List.map
    (fun (e : Workload.Stream.entry) ->
      transit t ~in_port:e.Workload.Stream.in_port ~now:e.Workload.Stream.now
        e.Workload.Stream.packet)
    stream

(* ---- Soundness -------------------------------------------------------- *)

type violation = {
  packet_index : int;
  metric : Perf.Metric.t;
  bound : int;
  measured : int;
  binding : Perf.Pcv.binding;
}

type report = {
  packets : int;
  violations : violation list;
  worst_headroom_pct : float;
}

let tracked_pcvs =
  Perf.Pcv.[ expired; collisions; traversals; occupancy; scan; ip_options ]

(* Conservative per-packet binding over [pcvs]: per-PCV max over every
   hop's observations (a PCV never observed binds to 0). *)
let binding_of tr pcvs =
  List.map
    (fun pcv ->
      ( pcv,
        List.fold_left
          (fun acc h ->
            List.fold_left
              (fun acc (p, v) -> if Perf.Pcv.equal p pcv then max acc v else acc)
              acc h.observations)
          0 tr.hops ))
    pcvs

let check t ~worst stream =
  let pcvs =
    List.sort_uniq Perf.Pcv.compare (tracked_pcvs @ Perf.Cost_vec.pcvs worst)
  in
  let violations = ref [] in
  let headroom = ref 100. in
  List.iteri
    (fun index (e : Workload.Stream.entry) ->
      let tr =
        transit t ~in_port:e.Workload.Stream.in_port
          ~now:e.Workload.Stream.now e.Workload.Stream.packet
      in
      let binding = binding_of tr pcvs in
      let check_metric metric measured =
        let bound = Perf.Cost_vec.eval_exn binding worst metric in
        if bound < measured then
          violations :=
            { packet_index = index; metric; bound; measured; binding }
            :: !violations
        else if bound > 0 then
          headroom :=
            Float.min !headroom
              (100. *. float_of_int (bound - measured) /. float_of_int bound)
      in
      check_metric Perf.Metric.Instructions tr.ic;
      check_metric Perf.Metric.Memory_accesses tr.ma)
    stream;
  {
    packets = List.length stream;
    violations = List.rev !violations;
    worst_headroom_pct = !headroom;
  }

let pp_report ppf r =
  if r.violations = [] then
    Fmt.pf ppf
      "OK: %d packets within the topology contract (tightest headroom: \
       %.1f%%)@."
      r.packets r.worst_headroom_pct
  else begin
    Fmt.pf ppf "TOPOLOGY CONTRACT VIOLATED on %d of %d packets:@."
      (List.length r.violations) r.packets;
    List.iter
      (fun v ->
        Fmt.pf ppf "  packet %d: %a bound %d < measured %d at %a@."
          v.packet_index Perf.Metric.pp v.metric v.bound v.measured
          Perf.Pcv.pp_binding v.binding)
      r.violations
  end
