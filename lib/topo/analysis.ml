open Perf

type egress =
  | Exited of { node : string; label : string }
  | Dropped of string
  | Flooded of string

type step = {
  node : string;
  path : Symbex.Path.t;
  in_port : Solver.Sym.t;
  now : Solver.Sym.t;
}

type route = {
  steps : step list;
  egress : egress;
  constraints : Solver.Constr.t list;
  cost : Cost_vec.t;
}

type t = {
  graph : Graph.t;
  entries : (string * Nf.Registry.entry) list;
  routes : route list;
  unsolved : int;
  infeasible_routes : int;
  input : Symbex.Spacket.input;
  ingress_engine : Symbex.Engine.result;
}

let equal_egress a b = a = b

let pp_egress ppf = function
  | Exited { node; label } -> Fmt.pf ppf "%s.%s" node label
  | Dropped node -> Fmt.pf ppf "drop@@%s" node
  | Flooded node -> Fmt.pf ppf "flood@@%s" node

(* ---- Replay of a route's witness --------------------------------------- *)

let concretize_packet model (input : Symbex.Spacket.input) =
  let len = Solver.Model.value model (Symbex.Spacket.len_sym input) in
  let packet = Net.Packet.create len in
  List.iter
    (fun (off, sym) ->
      if off < len then
        Net.Packet.set_u8 packet off (Solver.Model.value model sym land 0xff))
    (Symbex.Spacket.known_bytes input);
  packet

(* One step's cost, replayed on the route's concrete witness packet. *)
let replay_cost (entry : Nf.Registry.entry) model packet step =
  let path = step.path in
  let _, events =
    Bolt.Pipeline.replay_witness ~path
      ~stubs:
        (List.map
           (fun c -> Solver.Model.eval model c.Symbex.Path.ret)
           path.Symbex.Path.calls)
      ~in_port:(Solver.Model.value model step.in_port)
      ~now:(Solver.Model.value model step.now)
      entry.Nf.Registry.program packet
  in
  Bolt.Pipeline.analyze_replay ~contracts:entry.Nf.Registry.contracts ~path
    events

(* ---- The walk (paper §3.4, SymNet-style) -------------------------------- *)

(* Every node runs on its predecessor's symbolic output packet under the
   accumulated constraints.  A [Forward] follows the edge declared for its
   port, adding the [out_port = p] constraint and pinning the downstream
   [in_port]; [Drop]/[Flood] end the route at that node.  Route tuples whose
   joint constraints are unsatisfiable are pruned, which is what makes the
   composed bound tighter than adding per-node worst cases (Figure 3).
   Exploration threads one shared symbol generator, so the walk is serial;
   the graph was validated, so every name resolves and there is no cycle. *)
let walk ?max_paths ~models graph entries =
  let gen = Solver.Sym.gen () in
  let input = Symbex.Spacket.input gen () in
  let view0 = Symbex.Spacket.view input in
  let ctx = Symbex.Value.ctx gen in
  let ingress_engine = ref None in
  let infeasible = ref 0 in
  (* (steps_rev, egress, joint constraints), reversed traversal order *)
  let pending = ref [] in
  let emit steps_rev egress cons =
    pending := (steps_rev, egress, cons) :: !pending
  in
  let rec descend steps_rev node view cons pin =
    let engine =
      Symbex.Engine.explore ?max_paths ~shared:(gen, view) ~initial:cons
        ?pin_port:pin ~models (List.assoc node entries).Nf.Registry.program
    in
    if !ingress_engine = None then ingress_engine := Some engine;
    List.iter
      (fun (path : Symbex.Path.t) ->
        let steps_rev =
          {
            node;
            path;
            in_port = engine.Symbex.Engine.in_port;
            now = engine.Symbex.Engine.now;
          }
          :: steps_rev
        in
        match path.Symbex.Path.action with
        | Symbex.Path.Drop ->
            emit steps_rev (Dropped node) path.Symbex.Path.constraints
        | Symbex.Path.Flood ->
            emit steps_rev (Flooded node) path.Symbex.Path.constraints
        | Symbex.Path.Forward v -> route steps_rev node path v)
      engine.Symbex.Engine.paths
  and route steps_rev node (path : Symbex.Path.t) v =
    match Graph.out_edges graph node with
    | [] ->
        emit steps_rev
          (Exited { node; label = Graph.default_exit })
          path.Symbex.Path.constraints
    | [ { Graph.sel = Graph.Any; target; _ } ] ->
        follow steps_rev node path path.Symbex.Path.constraints target None
    | edges ->
        (* every edge carries a [Port] selector (validated): constrain the
           forwarded value, prune infeasible (port, path) tuples, and send
           the complement — a port nobody declared — out of the topology *)
        let lin = Symbex.Value.to_lin ctx v in
        let side = Symbex.Value.take_side ctx in
        let ports =
          List.filter_map
            (fun (e : Graph.edge) ->
              match e.Graph.sel with
              | Graph.Port p -> Some (p, e.Graph.target)
              | Graph.Any -> assert false (* validated: Any is exclusive *))
            edges
        in
        (* exploration accepted the path's checked prefix; its unchecked
           tail joins the edge's own constraints in the solved slice *)
        let known, tail = Symbex.Path.split_checked path in
        let feasible added =
          Solver.Cache.feasible ~known (tail @ added)
        in
        List.iter
          (fun (p, target) ->
            let added = Solver.Constr.eq lin (Solver.Linexpr.const p) :: side in
            if feasible added then
              follow steps_rev node path
                (path.Symbex.Path.constraints @ added)
                target (Some p)
            else incr infeasible)
          ports;
        let added =
          List.map
            (fun (p, _) -> Solver.Constr.ne lin (Solver.Linexpr.const p))
            ports
          @ side
        in
        if feasible added then
          emit steps_rev
            (Exited { node; label = Graph.default_exit })
            (path.Symbex.Path.constraints @ added)
        else incr infeasible
  and follow steps_rev node (path : Symbex.Path.t) cons target pin =
    match target with
    | Graph.Exit label -> emit steps_rev (Exited { node; label }) cons
    | Graph.Node next -> descend steps_rev next path.Symbex.Path.view cons pin
  in
  descend [] graph.Graph.ingress view0 [] None;
  (List.rev !pending, !infeasible, input, Option.get !ingress_engine)

let run ?max_paths ?(models = Bolt.Ds_models.default) graph =
  (match Graph.validate graph with
  | [] -> ()
  | errs ->
      invalid_arg
        (Fmt.str "Topo.Analysis.run %S: %a" graph.Graph.name
           Fmt.(list ~sep:(any "; ") Graph.pp_error)
           errs));
  let entries =
    List.map
      (fun (n : Graph.node) ->
        (n.Graph.name, Nf.Registry.of_spec n.Graph.spec))
      graph.Graph.nodes
  in
  let pending, infeasible_routes, input, ingress_engine =
    Obs.Span.with_ ~cat:"topo" "topo.walk" (fun () ->
        walk ?max_paths ~models graph entries)
  in
  (* A route is kept when its joint constraints have a witness and every
     traversed node replays on it; the rest are counted as unsolved. *)
  let finalize (steps_rev, egress, constraints) =
    let steps = List.rev steps_rev in
    match Solver.Solve.check constraints with
    | Solver.Solve.Unsat | Solver.Solve.Unknown -> None
    | Solver.Solve.Sat model -> (
        let packet = concretize_packet model input in
        match
          List.fold_left
            (fun acc st ->
              Cost_vec.add acc
                (replay_cost (List.assoc st.node entries) model packet st))
            Cost_vec.zero steps
        with
        | cost -> Some { steps; egress; constraints; cost }
        | exception
            ( Failure _ | Bolt.Pipeline.Replay_divergence _
            | Exec.Interp.Stuck _ ) ->
            None)
  in
  let routes =
    Obs.Span.with_ ~cat:"topo" "topo.finalize" (fun () ->
        List.filter_map finalize pending)
  in
  {
    graph;
    entries;
    routes;
    unsolved = List.length pending - List.length routes;
    infeasible_routes;
    input;
    ingress_engine;
  }

let worst t = Cost_vec.max_upper_list (List.map (fun r -> r.cost) t.routes)

let naive t =
  Cost_vec.sum
    (List.map
       (fun (_, (e : Nf.Registry.entry)) ->
         Bolt.Pipeline.worst_case
           (Bolt.Pipeline.analyze
              ~config:
                Bolt.Pipeline.Config.(
                  default |> with_contracts e.Nf.Registry.contracts)
              e.Nf.Registry.program))
       t.entries)

let egresses t =
  List.fold_left
    (fun acc r -> if List.mem r.egress acc then acc else acc @ [ r.egress ])
    [] t.routes

(* Bound and count of a set of routes. *)
let bound routes =
  (Cost_vec.max_upper_list (List.map (fun r -> r.cost) routes), List.length routes)

let egress_cost t egress =
  bound (List.filter (fun r -> equal_egress r.egress egress) t.routes)

let ingress_classes t =
  (List.assoc t.graph.Graph.ingress t.entries).Nf.Registry.classes

(* Tag requirements and forbids are judged on the ingress path (they are
   abstract-state assumptions of the ingress NF); the class predicate,
   applied once per class, must be satisfiable together with the route's
   joint constraints. *)
let class_members t (cls : Symbex.Iclass.t) =
  let predicate = cls.Symbex.Iclass.predicate t.ingress_engine in
  List.filter
    (fun r ->
      let ingress_path =
        match r.steps with s :: _ -> s.path | [] -> assert false
      in
      Symbex.Iclass.admits cls ~predicate ~tags:ingress_path r.constraints)
    t.routes

let class_cost t cls = bound (class_members t cls)

let class_breakdown t cls =
  let members = class_members t cls in
  ( bound members,
    List.filter_map
      (fun egress ->
        match List.filter (fun r -> equal_egress r.egress egress) members with
        | [] -> None
        | routes -> Some (egress, bound routes))
      (egresses t) )

let contract t =
  let entries =
    List.concat_map
      (fun (cls : Symbex.Iclass.t) ->
        let total, per_egress = class_breakdown t cls in
        let entry ~class_name (cost, n) =
          Contract.entry ~class_name
            ~description:cls.Symbex.Iclass.description ~path_count:n cost
        in
        entry ~class_name:cls.Symbex.Iclass.name total
        :: List.map
             (fun (egress, b) ->
               entry
                 ~class_name:
                   (Fmt.str "%s via %a" cls.Symbex.Iclass.name pp_egress
                      egress)
                 b)
             per_egress)
      (ingress_classes t)
  in
  Contract.make ~nf:t.graph.Graph.name entries
