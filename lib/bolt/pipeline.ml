open Perf

type path_analysis = {
  path : Symbex.Path.t;
  cost : Cost_vec.t;
  replay : Exec.Interp.run;
  witness : Solver.Model.t;
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

(* ---- One-pass replay and pricing (paper Alg. 2, steps 3–4) ---------- *)

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

(* The pricing state of one replay, advanced by the meter's marker hook
   while the replay runs.  The hook never raises: a call or loop marker
   that disagrees with the path is kept in [error] and raised by
   [assemble], so a replay that goes on to diverge still reports the
   divergence, as a trace walked after the replay did. *)
type pricer = {
  model : Hw.Model.t;
  mutable calls : Symbex.Path.call list;  (** not yet matched *)
  mutable matched : Symbex.Path.call list;  (** reversed *)
  mutable loop : (string * snap list) option;
      (** active PCV loop: name, reversed iteration-marker snapshots *)
  mutable loops_done : (string * snap * snap) list;
      (** finished loops: name, per-iteration snap, removed snap *)
  mutable error : string option;
}

let snap m =
  {
    ic = m.Hw.Model.instr_count ();
    ma = m.Hw.Model.mem_count ();
    cy = m.Hw.Model.cycles ();
  }

let on_marker p (marker : Exec.Meter.marker) =
  let fail msg = p.error <- Some msg in
  if p.error = None then
    match marker with
    | Exec.Meter.Call { instance; meth } -> (
        match p.calls with
        | c :: rest
          when c.Symbex.Path.instance = instance && c.Symbex.Path.meth = meth
          ->
            p.calls <- rest;
            p.matched <- c :: p.matched
        | _ ->
            fail
              (Printf.sprintf
                 "Bolt: replay trace and symbolic path disagree at call \
                  %s.%s"
                 instance meth))
    | Exec.Meter.Loop_head name -> (
        match p.loop with
        | None -> p.loop <- Some (name, [])
        | Some _ -> fail "Bolt: nested PCV loops are unsupported")
    | Exec.Meter.Loop_iter _ -> (
        match p.loop with
        | Some (name, marks) -> p.loop <- Some (name, snap p.model :: marks)
        | None -> fail "Bolt: loop iteration marker outside a loop")
    | Exec.Meter.Loop_exit _ -> (
        match p.loop with
        | None -> fail "Bolt: loop exit marker outside a loop"
        | Some (name, marks) ->
            p.loop <- None;
            let marks = List.rev (snap p.model :: marks) in
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
              p.loops_done <- (name, per_iter, removed) :: p.loops_done
            end)

(* The cost expression of a finished replay: its constant part, the
   contract branch of every stateful call, and each PCV loop's
   per-iteration cost times its PCV. *)
let assemble ~contracts p =
  let sym_cost =
    List.fold_left
      (fun acc (c : Symbex.Path.call) ->
        let dsc =
          Ds_contract.find_exn contracts ~ds_kind:c.Symbex.Path.kind
            ~meth:c.Symbex.Path.meth
        in
        let branch = Ds_contract.find_branch_exn dsc ~tag:c.Symbex.Path.tag in
        Cost_vec.add acc branch.Ds_contract.cost)
      Cost_vec.zero (List.rev p.matched)
  in
  Option.iter failwith p.error;
  if p.calls <> [] then
    failwith "Bolt: symbolic path had more calls than the replay trace";
  let total = snap p.model in
  let removed_total =
    List.fold_left
      (fun acc (_, _, removed) ->
        { ic = acc.ic + removed.ic;
          ma = acc.ma + removed.ma;
          cy = acc.cy + removed.cy })
      snap_zero p.loops_done
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
      p.loops_done
  in
  Cost_vec.sum (const_vec :: sym_cost :: loop_vecs)

let price_witness ?(cycle_model = Hw.Model.conservative) ~contracts ~path
    ~stubs ~in_port ~now program packet =
  let p =
    {
      model = cycle_model ();
      calls = path.Symbex.Path.calls;
      matched = [];
      loop = None;
      loops_done = [];
      error = None;
    }
  in
  let meter = Exec.Meter.create ~on_marker:(on_marker p) p.model in
  let path_id, decisions, loops = fidelity_of path in
  let run =
    Exec.Replay.run ~meter ~stubs ~path_id ~decisions ~loops ~in_port ~now
      program packet
  in
  (run, fun () -> assemble ~contracts p)

(* ---- Witness extraction --------------------------------------------- *)

(* Action-kind agreement between a symbolic path and its witness replay
   (the decision-by-decision check inside the replay is the fine-grained
   one; this is the cheap outer sanity check). *)
let replay_matches (action : Symbex.Path.action)
    (outcome : Exec.Interp.outcome) =
  match (action, outcome) with
  | Symbex.Path.Drop, Exec.Interp.Dropped -> true
  | Symbex.Path.Flood, Exec.Interp.Flooded -> true
  | Symbex.Path.Forward _, Exec.Interp.Sent _ -> true
  | _ -> false

let c_diverged = Obs.Metrics.counter "pipeline.replay_diverged"

let witness_packet model input =
  let len = Solver.Model.value model (Symbex.Spacket.len_sym input) in
  let packet = Net.Packet.create len in
  List.iter
    (fun (off, sym) ->
      if off < len then
        Net.Packet.set_u8 packet off (Solver.Model.value model sym land 0xff))
    (Symbex.Spacket.known_bytes input);
  packet

let witness memo (engine : Symbex.Engine.result) (path : Symbex.Path.t) =
  Obs.Span.with_ ~cat:"pipeline" "solve"
    ~args:(fun () -> [ ("path", string_of_int path.Symbex.Path.id) ])
  @@ fun () ->
  match Solver.Cache.witness memo path.Symbex.Path.constraints with
  | Solver.Solve.Unsat | Solver.Solve.Unknown -> None
  | Solver.Solve.Sat model ->
      let packet = witness_packet model engine.Symbex.Engine.input in
      let stubs =
        path.Symbex.Path.calls
        |> List.map (fun c -> Solver.Model.eval model c.Symbex.Path.ret)
      in
      let in_port = Solver.Model.value model engine.Symbex.Engine.in_port in
      let now = Solver.Model.value model engine.Symbex.Engine.now in
      Some (model, packet, stubs, in_port, now)

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
    | Some (witness, packet, stubs, in_port, now) -> (
        match
          Obs.Span.with_ ~cat:"pipeline" "replay"
            ~args:(fun () -> [ ("path", string_of_int path.Symbex.Path.id) ])
            (fun () ->
              price_witness ~cycle_model:config.Config.cycle_model ~contracts
                ~path ~stubs ~in_port ~now program packet)
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
        | replay, cost ->
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
                Obs.Span.with_ ~cat:"pipeline" "price"
                  ~args:(fun () ->
                    [ ("path", string_of_int path.Symbex.Path.id) ])
                  cost
              in
              Some
                { path; cost; replay; witness; packet; stubs; in_port; now })
  in
  let per_path = List.map solve_path engine.Symbex.Engine.paths in
  let unsolved =
    List.length (List.filter Option.is_none per_path)
  in
  let analyses = List.filter_map Fun.id per_path in
  { program; engine; analyses; unsolved }

let path_count t = List.length t.analyses

let class_members t (cls : Symbex.Iclass.t) =
  let predicate = cls.Symbex.Iclass.predicate t.engine in
  List.filter
    (fun a ->
      Symbex.Iclass.admits cls ~witness:a.witness ~predicate ~tags:a.path
        a.path.Symbex.Path.constraints)
    t.analyses

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
