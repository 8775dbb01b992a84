(** The BOLT pipeline (paper Algorithm 2).

    [analyze] substitutes symbolic models for the stateful calls, explores
    every feasible path, solves each path's constraints for a concrete
    witness packet, and replays it through the analysis build, pricing
    the replay as it runs: every instruction and memory access is charged
    straight into the conservative hardware model, the matching
    performance-contract branch is spliced in at every stateful call, and
    PCV loops are parameterised by their trip count.  Alg. 2's steps 3
    (trace) and 4 (price) are one pass; no trace is kept. *)

type path_analysis = {
  path : Symbex.Path.t;
  cost : Perf.Cost_vec.t;
      (** conservative cost of this path, over PCVs *)
  replay : Exec.Interp.run;
      (** the witness replay, charged into [config.cycle_model] *)
  witness : Solver.Model.t;
      (** the model of [path]'s constraints the witness was read from *)
  packet : Net.Packet.t;  (** the witness packet, as the replay left it *)
  stubs : int list;
  in_port : int;
  now : int;
}

type t = {
  program : Ir.Program.t;
  engine : Symbex.Engine.result;
  analyses : path_analysis list;
  unsolved : int;
      (** paths whose constraints the solver could not produce a witness
          for (kept out of the contract; 0 in all our NFs) *)
}

(** Everything [analyze] needs besides the program itself, in one
    record.  Build one from {!Config.default} with the [with_*]
    builders (or record update), instead of threading five scattered
    optional arguments through every caller:

    {[
      Pipeline.analyze
        ~config:Pipeline.Config.(default |> with_contracts c |> with_obs true)
        program
    ]} *)
module Config : sig
  type t = {
    models : Symbex.Model.registry;
        (** symbolic models substituted for stateful calls
            (default {!Ds_models.default}) *)
    contracts : Perf.Ds_contract.library;
        (** performance contracts spliced in at stateful calls
            (default: empty — fine for stateless NFs) *)
    cycle_model : unit -> Hw.Model.t;
        (** prices the stateless trace (default {!Hw.Model.conservative};
            {!Hw.Model.dram_only} for the hardware-model ablation) *)
    max_paths : int;  (** symbolic-execution path budget *)
    obs : bool;
        (** [true] switches the {!Obs} runtime on before the run (it is
            never switched off here), so spans and counters of this
            analysis are recorded *)
  }

  val default : t

  val with_models : Symbex.Model.registry -> t -> t
  val with_contracts : Perf.Ds_contract.library -> t -> t
  val with_cycle_model : (unit -> Hw.Model.t) -> t -> t
  val with_jobs : int -> t -> t
  (** Ignored: returns the configuration unchanged.  Derivation runs on
      the calling domain; this survives only for callers written when
      the pipeline had a domain-pool width. *)

  val with_max_paths : int -> t -> t
  val with_obs : bool -> t -> t
end

val analyze : config:Config.t -> Ir.Program.t -> t
(** Run the full pipeline (explore, witness-solve, replay, price) under
    [config].

    The whole run stays on the calling domain: each path is solved,
    replayed and priced in turn, in exploration order.  A derivation
    costs well under a millisecond, less than spawning and joining a
    second domain would, and a second domain would also tax every
    minor collection (DESIGN §6).  Each path builds its own meter and
    hardware model, and the shared solver cache's verdicts are a pure
    function of the constraint set, so callers may still run whole
    analyses on several domains at once.

    When the {!Obs} runtime is enabled (via [config.obs] or
    {!Obs.enable}), the run is recorded as an [analyze] span containing
    the [explore] phase and, per path, [solve]/[replay]/[price] spans,
    plus the symbex/solver/interp counters.  [replay] times the one pass
    that replays and prices; [price] only the final assembly of the cost
    expression. *)

val path_count : t -> int

val class_members : t -> Symbex.Iclass.t -> path_analysis list
(** The analysed paths {!Symbex.Iclass.admits} to the class, each judged
    with its [witness] first, so a path whose witness meets the class
    predicate is admitted without a solve. *)

val class_cost : t -> Symbex.Iclass.t -> Perf.Cost_vec.t * int
(** Conservative (monomial-wise max) cost over the class's member paths,
    and the member count. *)

val contract : t -> classes:Symbex.Iclass.t list -> Perf.Contract.t
(** The NF's performance contract, one entry per class. *)

val worst_case : t -> Perf.Cost_vec.t
(** Max over all paths — the unconstrained-traffic prediction. *)

val predict :
  t -> Symbex.Iclass.t -> Perf.Metric.t -> (int, Perf.Pcv.t) result
(** The concrete bound for a class, at the class's PCV bindings. *)

(** {1 Reusable internals} *)

exception Replay_divergence of string
(** A witness satisfied its path's constraints but, replayed concretely,
    took a different branch somewhere — over-approximated values (an
    overlapping-width packet read, a masked unknown) let the solver pick
    values no real packet realises.  Pricing such a trace would attribute
    the wrong cost to the path.  This is {!Exec.Replay.Divergence} under
    its historical name: the fidelity check is structural — the replay
    consumes the path's assumed decisions as it branches and raises at
    the exact diverging statement — and {!analyze} counts the path as
    unsolved. *)

val price_witness :
  ?cycle_model:(unit -> Hw.Model.t) ->
  contracts:Perf.Ds_contract.library ->
  path:Symbex.Path.t ->
  stubs:int list ->
  in_port:int ->
  now:int ->
  Ir.Program.t ->
  Net.Packet.t ->
  Exec.Interp.run * (unit -> Perf.Cost_vec.t)
(** Replay a witness through {!Exec.Replay.run} against [path]'s assumed
    decisions and PCV loops on a meter whose model is [cycle_model ()]
    (default {!Hw.Model.conservative}), pricing it as it runs: the
    meter's marker hook matches each stateful call against [path]'s
    next call and snapshots the model at each PCV-loop marker.  Raises
    {!Replay_divergence} (at the diverging statement) or
    {!Exec.Interp.Stuck}; the packet is left as the replay wrote it.

    The second component assembles the cost expression: the constant
    part, the [contracts] branch of every stateful call and each PCV
    loop's per-iteration cost times its PCV.  It raises [Failure] when
    the replay's calls or PCV loops disagreed with [path] — only when
    forced, so a caller that first checks the replay (its divergence,
    {!replay_matches}) reports a diverging witness as such. *)

val witness_packet : Solver.Model.t -> Symbex.Spacket.input -> Net.Packet.t
(** The concrete packet a model describes: its length symbol's value,
    and each known byte's value (mod 256) where it lies within that
    length; every other byte zero. *)

val witness :
  Solver.Cache.memo -> Symbex.Engine.result -> Symbex.Path.t ->
  (Solver.Model.t * Net.Packet.t * int list * int * int) option
(** Solve a path's constraints with {!Solver.Cache.witness}, one
    independent component at a time, remembering component verdicts in
    [memo] (one per derivation: {!analyze} makes its own), and
    concretize the model: [(model, packet, stubs, in_port, now)].  The model is
    the one {!Solver.Solve.check} finds on the whole set whenever no
    budget binds in that solve. *)

val replay_matches : Symbex.Path.action -> Exec.Interp.outcome -> bool
(** Action-kind agreement between a symbolic path and a concrete replay
    (the coarse outer check; {!Exec.Replay.run} checks every branch
    decision as it is made). *)
