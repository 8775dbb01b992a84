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

(* [pcv]'s index in [slots], or -1. *)
let slot_of slots pcv =
  let rec go i =
    if i = Array.length slots then -1
    else if Perf.Pcv.equal slots.(i) pcv then i
    else go (i + 1)
  in
  go 0

(* A polynomial compiled over PCV slots: monomial after monomial, its
   coefficient, its variable count [n], then [n] (slot, exponent) pairs.
   Ints wrap, so the sum and products come out as [Perf_expr]'s in any
   order. *)
let compile slots poly =
  Perf.Perf_expr.terms poly
  |> List.concat_map (fun (vars, coeff) ->
         coeff :: List.length vars
         :: List.concat_map (fun (v, e) -> [ slot_of slots v; e ]) vars)
  |> Array.of_list

let eval_compiled (code : int array) (x : int array) =
  let acc = ref 0 and pc = ref 0 in
  while !pc < Array.length code do
    let n = code.(!pc + 1) in
    let v = ref code.(!pc) in
    for k = 0 to n - 1 do
      let xk = x.(code.(!pc + 2 + (2 * k))) in
      for _ = 1 to code.(!pc + 3 + (2 * k)) do
        v := !v * xk
      done
    done;
    acc := !acc + !v;
    pc := !pc + 2 + (2 * n)
  done;
  !acc

(* Conservative per-packet binding: per-PCV max over every hop's
   observations, into [x] by slot (a PCV never observed binds to 0). *)
let bind slots x tr =
  Array.fill x 0 (Array.length x) 0;
  List.iter
    (fun h ->
      List.iter
        (fun (p, v) ->
          let i = slot_of slots p in
          if i >= 0 then x.(i) <- max x.(i) v)
        h.observations)
    tr.hops

let check t ~worst stream =
  let slots =
    Array.of_list
      (List.sort_uniq Perf.Pcv.compare
         (tracked_pcvs @ Perf.Cost_vec.pcvs worst))
  in
  let bound_ic = compile slots worst.Perf.Cost_vec.ic
  and bound_ma = compile slots worst.Perf.Cost_vec.ma in
  let x = Array.make (Array.length slots) 0 in
  let violations = ref [] in
  let headroom = ref 100. in
  List.iteri
    (fun index (e : Workload.Stream.entry) ->
      let tr =
        transit t ~in_port:e.Workload.Stream.in_port
          ~now:e.Workload.Stream.now e.Workload.Stream.packet
      in
      bind slots x tr;
      let check_metric metric code measured =
        let bound = eval_compiled code x in
        if bound < measured then
          let binding =
            List.mapi (fun i p -> (p, x.(i))) (Array.to_list slots)
          in
          violations :=
            { packet_index = index; metric; bound; measured; binding }
            :: !violations
        else if bound > 0 then
          headroom :=
            Float.min !headroom
              (100. *. float_of_int (bound - measured) /. float_of_int bound)
      in
      check_metric Perf.Metric.Instructions bound_ic tr.ic;
      check_metric Perf.Metric.Memory_accesses bound_ma tr.ma)
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
