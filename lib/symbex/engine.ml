(* The symbolic domain of the unified Ir.Eval traversal: values are
   Value.t, state is an immutable record, and a branch explores every
   feasible continuation in order — the fork tree.  The traversal
   itself (statement dispatch, loop structure, the PCV one-iteration
   over-approximation) lives in Ir.Eval and is shared verbatim with the
   concrete interpreter and the fidelity replay. *)

module SM = Map.Make (String)

(* Structural order on constraints: pure variants over ints, strings and
   lists, so [Stdlib.compare] is total.  Backs the O(log n) duplicate
   check in [add_con]. *)
module CS = Set.Make (struct
  type t = Solver.Constr.t

  let compare = Stdlib.compare
end)

let c_forks = Obs.Metrics.counter "symbex.forks_taken"
let c_pruned = Obs.Metrics.counter "symbex.paths_pruned"
let c_cons = Obs.Metrics.counter "symbex.constraints_added"
let c_paths = Obs.Metrics.counter "symbex.paths_completed"

type result = {
  paths : Path.t list;
  input : Spacket.input;
  gen : Solver.Sym.gen;
  in_port : Solver.Sym.t;
  now : Solver.Sym.t;
  infeasible_pruned : int;
}

type st = {
  env : Value.t SM.t;
  view : Spacket.view;
  cons : Solver.Constr.t list;  (** reversed *)
  conset : CS.t;  (** the members of [cons], for duplicate checks *)
  checked : Solver.Constr.t list;
      (** [cons] as of the last accepted feasibility check (a suffix of
          it) *)
  unchecked : Solver.Constr.t list;
      (** added since that check, reversed: [cons] is [unchecked @
          checked] *)
  calls : Path.call list;  (** reversed *)
  loops : Path.pcv_loop list;
  decis : bool list;  (** reversed branch decisions, see {!Path.t} *)
  in_pcv : bool;  (** inside a PCV loop: decisions are not recorded *)
  ncalls : int;
}

let decide st b = if st.in_pcv then st else { st with decis = b :: st.decis }

let explore ?(max_paths = 8192) ?(accepted = []) ?(initial = []) ?shared
    ?concrete ?pin_port ~models (program : Ir.Program.t) =
  Obs.Span.with_ ~cat:"symbex" "explore"
    ~args:(fun () -> [ ("program", program.Ir.Program.name) ])
  @@ fun () ->
  let gen, view0 =
    match (shared, concrete) with
    | Some (gen, view), _ -> (gen, view)
    | None, Some (packet, _, _) ->
        let gen = Solver.Sym.gen () in
        (gen, Spacket.view (Spacket.concrete_input gen packet))
    | None, None ->
        let gen = Solver.Sym.gen () in
        (gen, Spacket.view (Spacket.input gen ()))
  in
  let ctx = Value.ctx gen in
  let in_port = Solver.Sym.fresh gen ~lo:0 ~hi:7 "in_port" in
  let now = Solver.Sym.fresh gen ~lo:1000 ~hi:(1 lsl 40) "now" in
  (* A topology edge delivers the packet on a known port: the symbol stays
     symbolic (models and replay read it as usual) but is pinned by an
     equality, so downstream branches on [in_port] collapse. *)
  let initial =
    match pin_port with
    | None -> initial
    | Some p ->
        initial
        @ [
            Solver.Constr.eq (Solver.Linexpr.sym in_port)
              (Solver.Linexpr.const p);
          ]
  in
  let paths = ref [] in
  let path_count = ref 0 in
  let pruned = ref 0 in
  let add_con st c =
    if Solver.Constr.is_true c || CS.mem c st.conset then st
    else begin
      Obs.Metrics.incr c_cons;
      {
        st with
        cons = c :: st.cons;
        conset = CS.add c st.conset;
        unchecked = c :: st.unchecked;
      }
    end
  in
  let drain st = List.fold_left add_con st (Value.take_side ctx) in
  let finish_path st action =
    Obs.Metrics.incr c_paths;
    incr path_count;
    if !path_count > max_paths then
      failwith "symbex: too many paths (raise max_paths?)";
    paths :=
      {
        Path.id = !path_count;
        constraints = List.rev st.cons;
        checked = List.length st.checked;
        calls = List.rev st.calls;
        loops = List.rev st.loops;
        decisions = List.rev st.decis;
        action;
        view = st.view;
      }
      :: !paths
  in
  let fork st branches =
    (* each branch: (extra constraints, continuation).  [st.checked]
       was accepted ([accepted] before the first check), so only what
       was added since — side constraints, [initial] before the first
       check, and the branch's own — seeds the slice that is solved. *)
    List.iter
      (fun (extra, k) ->
        let st' = List.fold_left add_con st extra in
        if Solver.Cache.feasible ~known:st.checked st'.unchecked then begin
          Obs.Metrics.incr c_forks;
          k { st' with checked = st'.cons; unchecked = [] }
        end
        else begin
          Obs.Metrics.incr c_pruned;
          incr pruned
        end)
      branches
  in
  let module Dom = struct
    type value = Value.t
    type state = st

    let const st n = (Value.of_int n, st)

    let var st v =
      match SM.find_opt v st.env with
      | Some value -> (value, st)
      | None -> failwith ("symbex: unbound variable " ^ v)

    let pkt_len st = (Spacket.length st.view, st)

    let pkt_load st w ~off =
      let value, cs = Spacket.load st.view ctx w ~offset:off in
      let st = List.fold_left add_con st cs in
      let st = drain st in
      (value, st)

    (* The operator may mint fresh symbols whose defining side
       constraints are picked up by the *next* drain point, exactly as
       the pre-unification engine sequenced it. *)
    let unop st op a =
      let st = drain st in
      (Value.unop ctx op a, st)

    let binop st op a b =
      let st = drain st in
      (Value.binop ctx op a b, st)

    let assign st v value = { st with env = SM.add v value st.env }

    let pkt_store st w ~off value =
      { st with view = Spacket.store st.view ctx w ~offset:off ~value }

    let branch st ~record ~true_first c ~on_true ~on_false =
      let f = Value.truth c in
      let true_side =
        ([ f ], fun st -> on_true (if record then decide st true else st))
      in
      let false_side =
        ( [ Solver.Constr.not_ f ],
          fun st -> on_false (if record then decide st false else st) )
      in
      fork st
        (if true_first then [ true_side; false_side ]
         else [ false_side; true_side ])

    let bound_exit st ~record ~bound:_ c ~exit =
      (* the bound is a static guarantee: force exit *)
      let f = Value.truth c in
      fork st
        [
          ( [ Solver.Constr.not_ f ],
            fun st -> exit (if record then decide st false else st) );
        ]

    let assume_exit st c ~exit =
      let f = Value.truth c in
      fork st [ ([ Solver.Constr.not_ f ], exit) ]

    let pcv_policy = `Once_havoc

    let pcv_enter st ~name ~bound =
      { st with loops = { Path.name; bound } :: st.loops; in_pcv = true }

    (* [`Iterate]-only hooks: the symbolic policy is [`Once_havoc]. *)
    let pcv_iter _ ~name:_ = assert false
    let pcv_exit _ ~name:_ ~iterations:_ = assert false
    let pcv_close st = { st with in_pcv = false }

    let havoc st vars =
      List.fold_left
        (fun st v ->
          {
            st with
            env = SM.add v (Value.fresh_opaque ctx ("havoc_" ^ v)) st.env;
          })
        st vars

    let call st ~program { Ir.Stmt.ret; instance; meth; args = _ } ~args ~k =
      let kind =
        match Ir.Program.kind_of_instance program instance with
        | Some k -> k
        | None -> failwith ("symbex: undeclared instance " ^ instance)
      in
      let model = Model.find_exn models ~kind ~meth in
      let branches = model.Model.apply ctx ~args in
      let st = drain st in
      fork st
        (List.map
           (fun (b : Model.branch) ->
             ( b.Model.constraints,
               fun st ->
                 let call =
                   {
                     Path.index = st.ncalls;
                     instance;
                     kind;
                     meth;
                     tag = b.Model.tag;
                     ret = Value.to_lin ctx b.Model.ret;
                   }
                 in
                 let st = drain st in
                 let st =
                   { st with calls = call :: st.calls; ncalls = st.ncalls + 1 }
                 in
                 let st =
                   match ret with
                   | None -> st
                   | Some v -> { st with env = SM.add v b.Model.ret st.env }
                 in
                 k st ))
           branches)

    let pre_return st = st

    let finish st (action : Value.t Ir.Eval.action) =
      finish_path st
        (match action with
        | Ir.Eval.Forward port -> Path.Forward port
        | Ir.Eval.Drop -> Path.Drop
        | Ir.Eval.Flood -> Path.Flood)

    let fallthrough _ =
      failwith "symbex: program fell through without returning"

    let unsupported _ msg = failwith ("symbex: " ^ msg)
  end in
  let module E = Ir.Eval.Make (Dom) in
  let in_port_v, now_v =
    match concrete with
    | Some (_, in_port, now) when shared = None ->
        (Value.of_int in_port, Value.of_int now)
    | _ -> (Value.of_sym in_port, Value.of_sym now)
  in
  let st0 =
    {
      env = SM.empty |> SM.add "in_port" in_port_v |> SM.add "now" now_v;
      view = view0;
      cons = List.rev_append initial (List.rev accepted);
      conset = CS.of_list (accepted @ initial);
      checked = List.rev accepted;
      unchecked = List.rev initial;
      calls = [];
      loops = [];
      decis = [];
      in_pcv = false;
      ncalls = 0;
    }
  in
  E.run st0 program;
  {
    paths = List.rev !paths;
    input = Spacket.input_of_view view0;
    gen;
    in_port;
    now;
    infeasible_pruned = !pruned;
  }
