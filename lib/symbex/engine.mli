(** The symbolic-execution engine.

    Exhaustively explores the feasible paths of an NF program's stateless
    code, with stateful calls replaced by their symbolic models
    (paper Alg. 2, line 3).  Forks happen at branches on symbolic
    conditions and at model branches; infeasible forks are pruned with the
    solver.  Each fork is judged by {!Solver.Cache.feasible} with [known]
    the state's constraints as of its last accepted check, and the seed
    everything added since: load and drain side constraints, the
    branch's own constraints and, until the first check, [initial] and
    the pinned [in_port] — so no precondition falls on the caller.  Loops are either unrolled (fork per trip count) or
    parameterised by a PCV (body executed once, assigned variables
    havocked — the trip count surfaces in the contract instead of the
    path count). *)

type result = {
  paths : Path.t list;
  input : Spacket.input;  (** shared input packet symbols *)
  gen : Solver.Sym.gen;
  in_port : Solver.Sym.t;
  now : Solver.Sym.t;
  infeasible_pruned : int;
      (** forks discarded because their constraints were unsatisfiable *)
}

val explore :
  ?max_paths:int ->
  ?initial:Solver.Constr.t list ->
  ?shared:Solver.Sym.gen * Spacket.view ->
  ?concrete:Net.Packet.t * int * int ->
  ?pin_port:int ->
  models:Model.registry ->
  Ir.Program.t ->
  result
(** [explore ~models program] runs the program on a fresh symbolic packet.
    [shared] reuses an existing generator and packet view — that is how
    chain composition executes the downstream NF on the upstream NF's
    symbolic output (§3.4).  [initial] seeds the path constraints.
    [pin_port] constrains the (still symbolic) [in_port] to a known value:
    a topology edge that delivers the packet on port [p] pins the
    downstream NF's ingress port without changing how models or the
    fidelity replay read the symbol.
    [concrete] is [(packet, in_port, now)]: the program is explored over
    that fully-concrete input ({!Spacket.concrete_input}), every branch
    condition folds, and exactly one feasible path can complete — the
    differential check against {!Exec.Interp}.  [shared] wins over
    [concrete] if both are given.
    Raises [Failure] if more than [max_paths] (default 8192) complete, or
    if a PCV loop body contains a stateful call (unsupported). *)
