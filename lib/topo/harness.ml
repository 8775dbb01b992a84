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

(* Where a station's packet goes next: another station, by index into
   [t.stations], or out of the topology under a label. *)
type dest = Next of int | Out of string

type station = {
  s_name : string;
  engine : Exec.Specialize.t;
  meter : Exec.Meter.t;
  ports : (int * dest) list;  (** declared Port edges *)
  any : dest;
      (** every other port: the Any edge, else the default exit *)
}

type t = {
  g : Graph.t;
  hw : Hw.Model.t;
  stations : station array;  (** in [g.nodes] order *)
  ingress : int;
}

let create ?hw (g : Graph.t) =
  (match Graph.validate g with
  | [] -> ()
  | errs ->
      invalid_arg
        (Fmt.str "Topo.Harness.create %S: %a" g.Graph.name
           Fmt.(list ~sep:(any "; ") Graph.pp_error)
           errs));
  let hw = match hw with Some hw -> hw | None -> Hw.Model.realistic () in
  let nodes = Array.of_list g.Graph.nodes in
  let index name =
    let rec go i =
      if String.equal nodes.(i).Graph.name name then i else go (i + 1)
    in
    go 0
  in
  let dest = function
    | Graph.Node next -> Next (index next)
    | Graph.Exit label -> Out label
  in
  let stations =
    Array.map
      (fun (n : Graph.node) ->
        let entry = Nf.Registry.of_spec n.Graph.spec in
        let meter = Exec.Meter.create hw in
        let engine, _env = Nf.Registry.specialize entry ~meter in
        let out = Graph.out_edges g n.Graph.name in
        let ports =
          List.filter_map
            (fun (e : Graph.edge) ->
              match e.Graph.sel with
              | Graph.Port p -> Some (p, dest e.Graph.target)
              | Graph.Any -> None)
            out
        in
        let any =
          List.find_map
            (fun (e : Graph.edge) ->
              match e.Graph.sel with
              | Graph.Any -> Some (dest e.Graph.target)
              | Graph.Port _ -> None)
            out
          |> Option.value ~default:(Out Graph.default_exit)
        in
        { s_name = n.Graph.name; engine; meter; ports; any })
      nodes
  in
  { g; hw; stations; ingress = index g.Graph.ingress }

let graph t = t.g

let specialized t =
  Array.to_list
    (Array.map
       (fun s -> (s.s_name, Exec.Specialize.specialized s.engine))
       t.stations)

(* The packet buffer DMA rewrites before every transit. *)
let dma_regions = [ (Exec.Interp.packet_base, 2048) ]

let rec port_dest (p : int) any = function
  | [] -> any
  | (q, d) :: rest -> if p = q then d else port_dest p any rest

let transit t ?(in_port = 0) ?(now = 1_000_000) packet =
  t.hw.Hw.Model.boundary dma_regions;
  let rec hop_at i in_port hops_rev =
    let s = t.stations.(i) in
    Exec.Meter.reset_observations s.meter;
    let run = Exec.Specialize.run s.engine ~in_port ~now packet in
    let hop =
      {
        node = s.s_name;
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
    | Exec.Interp.Dropped -> stop (Analysis.Dropped s.s_name)
    | Exec.Interp.Flooded -> stop (Analysis.Flooded s.s_name)
    | Exec.Interp.Sent p -> (
        match port_dest p s.any s.ports with
        | Next j -> hop_at j p hops_rev
        | Out label -> stop (Analysis.Exited { node = s.s_name; label }))
  in
  let hops_rev, egress = hop_at t.ingress in_port [] in
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

type violation = Perf.Bound.violation = {
  packet_index : int;
  metric : Perf.Metric.t;
  bound : int;
  measured : int;
  binding : Perf.Pcv.binding;
}

type report = Perf.Bound.report = {
  packets : int;
  violations : violation list;
  worst_headroom_pct : float;
}

(* A transit's binding: per-PCV max over every hop's observations.  A
   top-level loop, so checking a packet builds no closure. *)
let rec observe_hops acc = function
  | [] -> ()
  | h :: rest ->
      Perf.Bound.observe acc h.observations;
      observe_hops acc rest

let check t ~worst stream =
  let acc = Perf.Bound.acc (Perf.Bound.compile worst) in
  List.iter
    (fun { Workload.Stream.packet; now; in_port } ->
      let tr = transit t ~in_port ~now packet in
      Perf.Bound.clear acc;
      observe_hops acc tr.hops;
      Perf.Bound.check acc ~ic:tr.ic ~ma:tr.ma)
    stream;
  Perf.Bound.report acc

let pp_report = Perf.Bound.pp_report ~subject:"topology contract"
