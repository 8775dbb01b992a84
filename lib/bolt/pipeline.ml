open Perf

type path_analysis = {
  path : Symbex.Path.t;
  cost : Cost_vec.t;
  replay : Exec.Interp.run;
  packet : Net.Packet.t;
  stubs : int list;
  in_port : int;
  now : int;
}

type t = {
  program : Ir.Program.t;
  engine : Symbex.Engine.result;
  analyses : path_analysis list;
  unsolved : int;
}

(* ---- Configuration --------------------------------------------------- *)

module Config = struct
  type t = {
    models : Symbex.Model.registry;
    contracts : Ds_contract.library;
    cycle_model : unit -> Hw.Model.t;
    max_paths : int;
    obs : bool;
  }

  let default =
    {
      models = Ds_models.default;
      contracts = Ds_contract.library [];
      cycle_model = Hw.Model.conservative;
      max_paths = 8192;
      obs = false;
    }

  let with_models models t = { t with models }
  let with_contracts contracts t = { t with contracts }
  let with_cycle_model cycle_model t = { t with cycle_model }
  let with_jobs _ t = t
  let with_max_paths max_paths t = { t with max_paths }
  let with_obs obs t = { t with obs }
end

(* ---- Trace walking ------------------------------------------------- *)

type snap = { ic : int; ma : int; cy : int }

let snap_sub a b = { ic = a.ic - b.ic; ma = a.ma - b.ma; cy = a.cy - b.cy }
let snap_max a b =
  { ic = max a.ic b.ic; ma = max a.ma b.ma; cy = max a.cy b.cy }
let snap_zero = { ic = 0; ma = 0; cy = 0 }

let rec last = function
  | [ x ] -> x
  | _ :: rest -> last rest
  | [] -> invalid_arg "Bolt.Pipeline.last: empty list"

exception Replay_divergence = Exec.Replay.Divergence
(* Path fidelity is structural since the replay itself became an
   [Ir.Eval] instance: {!Exec.Replay.run} consumes the path's assumed
   decisions as it branches and raises at the exact diverging
   statement.  The exception is re-exported here so chain composition
   and older call sites keep one name for "this witness does not
   realise its path". *)

(* A path's fidelity contract, in the form {!Exec.Replay.run} takes. *)
let fidelity_of (path : Symbex.Path.t) =
  ( path.Symbex.Path.id,
    path.Symbex.Path.decisions,
    List.map (fun l -> l.Symbex.Path.name) path.Symbex.Path.loops )

let replay_witness ~path ~stubs ~in_port ~now program packet =
  let meter = Exec.Meter.create ~trace:true (Hw.Model.conservative ()) in
  let path_id, decisions, loops = fidelity_of path in
  let run =
    Exec.Replay.run ~meter ~stubs ~path_id ~decisions ~loops ~in_port ~now
      program packet
  in
  (run, Exec.Meter.events meter)

let analyze_replay ?(cycle_model = Hw.Model.conservative) ~contracts ~path
    events =
  Obs.Span.with_ ~cat:"pipeline" "price"
    ~args:(fun () -> [ ("path", string_of_int path.Symbex.Path.id) ])
  @@ fun () ->
  let m = cycle_model () in
  let snap () =
    {
      ic = m.Hw.Model.instr_count ();
      ma = m.Hw.Model.mem_count ();
      cy = m.Hw.Model.cycles ();
    }
  in
  let calls = ref path.Symbex.Path.calls in
  let sym_cost = ref Cost_vec.zero in
  (* active PCV loop: (name, reversed iteration-marker snapshots) *)
  let loop_state = ref None in
  (* finished loops: (name, per-iteration snap, removed snap) *)
  let loops_done = ref [] in
  let handle_event (ev : Exec.Meter.event) =
    match ev with
    | Exec.Meter.E_branch _ ->
        () (* fidelity is enforced during the replay itself (Exec.Replay) *)
    | Exec.Meter.E_instr (kind, n) -> m.Hw.Model.instr kind n
    | Exec.Meter.E_mem { addr; write; dependent } ->
        m.Hw.Model.mem ~addr ~write ~dependent
    | Exec.Meter.E_call { instance; meth; _ } -> (
        match !calls with
        | c :: rest
          when c.Symbex.Path.instance = instance && c.Symbex.Path.meth = meth
          ->
            calls := rest;
            let dsc =
              Ds_contract.find_exn contracts ~ds_kind:c.Symbex.Path.kind
                ~meth
            in
            let branch =
              Ds_contract.find_branch_exn dsc ~tag:c.Symbex.Path.tag
            in
            sym_cost := Cost_vec.add !sym_cost branch.Ds_contract.cost
        | _ ->
            failwith
              (Printf.sprintf
                 "Bolt: replay trace and symbolic path disagree at call \
                  %s.%s"
                 instance meth))
    | Exec.Meter.E_loop_head name -> (
        match !loop_state with
        | None -> loop_state := Some (name, [])
        | Some _ -> failwith "Bolt: nested PCV loops are unsupported")
    | Exec.Meter.E_loop_iter _ -> (
        match !loop_state with
        | Some (name, marks) -> loop_state := Some (name, snap () :: marks)
        | None -> failwith "Bolt: loop iteration marker outside a loop")
    | Exec.Meter.E_loop_exit _ -> (
        match !loop_state with
        | None -> failwith "Bolt: loop exit marker outside a loop"
        | Some (name, marks) ->
            loop_state := None;
            let marks = List.rev (snap () :: marks) in
            (* marks = [at iter1; at iter2; …; at exit] — consecutive
               differences are the per-iteration costs (body + next
               condition check). *)
            let rec deltas = function
              | a :: (b :: _ as rest) -> snap_sub b a :: deltas rest
              | _ -> []
            in
            let ds = deltas marks in
            if ds <> [] then begin
              let per_iter = List.fold_left snap_max snap_zero ds in
              let removed = snap_sub (last marks) (List.hd marks) in
              loops_done := (name, per_iter, removed) :: !loops_done
            end)
  in
  List.iter handle_event events;
  if !calls <> [] then
    failwith "Bolt: symbolic path had more calls than the replay trace";
  let total = snap () in
  let removed_total =
    List.fold_left
      (fun acc (_, _, removed) ->
        { ic = acc.ic + removed.ic;
          ma = acc.ma + removed.ma;
          cy = acc.cy + removed.cy })
      snap_zero !loops_done
  in
  let const_part = snap_sub total removed_total in
  let const_vec =
    Cost_vec.make
      ~ic:(Perf_expr.const const_part.ic)
      ~ma:(Perf_expr.const const_part.ma)
      ~cycles:(Perf_expr.const const_part.cy)
  in
  let loop_vecs =
    List.map
      (fun (name, per_iter, _) ->
        let pcv = Pcv.v name in
        Cost_vec.make
          ~ic:(Perf_expr.term per_iter.ic [ pcv ])
          ~ma:(Perf_expr.term per_iter.ma [ pcv ])
          ~cycles:(Perf_expr.term per_iter.cy [ pcv ]))
      !loops_done
  in
  Cost_vec.sum (const_vec :: !sym_cost :: loop_vecs)

(* ---- Witness extraction --------------------------------------------- *)

(* Action-kind agreement between a symbolic path and its witness replay
   (the branch-trace check in [analyze_replay] is the fine-grained one;
   this is the cheap outer sanity check). *)
let replay_matches (action : Symbex.Path.action)
    (outcome : Exec.Interp.outcome) =
  match (action, outcome) with
  | Symbex.Path.Drop, Exec.Interp.Dropped -> true
  | Symbex.Path.Flood, Exec.Interp.Flooded -> true
  | Symbex.Path.Forward _, Exec.Interp.Sent _ -> true
  | _ -> false

let c_diverged = Obs.Metrics.counter "pipeline.replay_diverged"

let witness memo (engine : Symbex.Engine.result) (path : Symbex.Path.t) =
  Obs.Span.with_ ~cat:"pipeline" "solve"
    ~args:(fun () -> [ ("path", string_of_int path.Symbex.Path.id) ])
  @@ fun () ->
  match Solver.Cache.witness memo path.Symbex.Path.constraints with
  | Solver.Solve.Unsat | Solver.Solve.Unknown -> None
  | Solver.Solve.Sat model ->
      let len =
        Solver.Model.value model (Symbex.Spacket.len_sym engine.Symbex.Engine.input)
      in
      let packet = Net.Packet.create len in
      List.iter
        (fun (off, sym) ->
          if off < len then
            Net.Packet.set_u8 packet off
              (Solver.Model.value model sym land 0xff))
        (Symbex.Spacket.known_bytes engine.Symbex.Engine.input);
      let stubs =
        path.Symbex.Path.calls
        |> List.map (fun c -> Solver.Model.eval model c.Symbex.Path.ret)
      in
      let in_port = Solver.Model.value model engine.Symbex.Engine.in_port in
      let now = Solver.Model.value model engine.Symbex.Engine.now in
      Some (packet, stubs, in_port, now)

(* ---- The pipeline ---------------------------------------------------- *)

let analyze ~(config : Config.t) program =
  if config.Config.obs then Obs.enable ();
  Obs.Span.with_ ~cat:"pipeline" "analyze"
    ~args:(fun () -> [ ("program", program.Ir.Program.name) ])
  @@ fun () ->
  let engine =
    Symbex.Engine.explore ~max_paths:config.Config.max_paths
      ~models:config.Config.models program
  in
  let contracts = config.Config.contracts in
  (* paths share prefixes, so their witnesses share components *)
  let memo = Solver.Cache.memo () in
  (* Witness-solve and replay of one path.  The meter, the hardware
     model and the witness packet are created here, per path; the
     engine result and the contract library are immutable and shared. *)
  let solve_path path =
    Obs.Span.with_ ~cat:"pipeline" "path"
      ~args:(fun () -> [ ("path", string_of_int path.Symbex.Path.id) ])
    @@ fun () ->
    match witness memo engine path with
    | None -> None
    | Some (packet, stubs, in_port, now) -> (
        match
          Obs.Span.with_ ~cat:"pipeline" "replay"
            ~args:(fun () -> [ ("path", string_of_int path.Symbex.Path.id) ])
            (fun () -> replay_witness ~path ~stubs ~in_port ~now program packet)
        with
        | exception Exec.Interp.Stuck _ ->
            (* the witness drove the replay off the path's runtime
               contract (e.g. a diverging Unroll loop overran its
               bound): divergence, not a priceable trace *)
            Obs.Metrics.incr c_diverged;
            None
        | exception Replay_divergence _ ->
            (* the witness took a branch the path did not assume —
               caught structurally, at the diverging statement *)
            Obs.Metrics.incr c_diverged;
            None
        | replay, events ->
            if
              not
                (replay_matches path.Symbex.Path.action
                   replay.Exec.Interp.outcome)
            then begin
              Obs.Metrics.incr c_diverged;
              None
            end
            else
              let cost =
                analyze_replay ~cycle_model:config.Config.cycle_model
                  ~contracts ~path events
              in
              Some { path; cost; replay; packet; stubs; in_port; now })
  in
  let per_path = List.map solve_path engine.Symbex.Engine.paths in
  let unsolved =
    List.length (List.filter Option.is_none per_path)
  in
  let analyses = List.filter_map Fun.id per_path in
  { program; engine; analyses; unsolved }

let path_count t = List.length t.analyses

let class_members t cls =
  let member = Symbex.Iclass.matches cls t.engine in
  List.filter (fun a -> member a.path) t.analyses

let class_cost t cls =
  let members = class_members t cls in
  ( Cost_vec.max_upper_list (List.map (fun a -> a.cost) members),
    List.length members )

let contract t ~classes =
  Contract.make ~nf:t.program.Ir.Program.name
    (List.map
       (fun (cls : Symbex.Iclass.t) ->
         let cost, n = class_cost t cls in
         Contract.entry ~class_name:cls.Symbex.Iclass.name
           ~description:cls.Symbex.Iclass.description ~path_count:n cost)
       classes)

let worst_case t =
  Cost_vec.max_upper_list (List.map (fun a -> a.cost) t.analyses)

let predict t (cls : Symbex.Iclass.t) metric =
  let cost, _ = class_cost t cls in
  Cost_vec.eval cls.Symbex.Iclass.bindings cost metric
