(** Differential oracles over the repo's core invariants.

    An oracle is a named, seeded property: it draws a random subject
    (a registry NF with a generated workload, or a wholly generated IR
    program with generated packets), exercises it, and checks one
    invariant the rest of the system relies on:

    - {b conservativeness} — every packet's metered cost is bounded by
      the contract's worst case evaluated at that packet's own PCVs
      (paper §2.2, the defining guarantee);
    - {b cache-equivalence} — solver verdicts are identical with the
      cache disabled, enabled, and capacity-starved into eviction churn;
    - {b obs-neutrality} — contract output is unchanged by tracing;
    - {b concrete-symbex-agreement} — on a fully-concrete packet the
      symbolic engine, the fidelity-checked replay and the direct
      interpreter (all instances of one {!Ir.Eval} walker) agree on
      path count, outcome and IC/MA;
    - {b specialized-interp-agreement} — the specialized production
      engine ({!Exec.Specialize}) agrees with the interpreter packet for
      packet over whole streams (outcome, IC/MA/cycles, observations,
      packet bytes, Stuck messages — charge equivalence), on the null
      model and on a coupled model, and on stateless subjects the
      fidelity replay reproduces the specialized run's IC/MA.

    On failure the counterexample is shrunk ({!Shrink}) before being
    reported, and the report carries a runnable repro command.

    Each constructor takes optional fault-injection hooks (a weakened
    bound, a substituted analyze or cached-check function).  They
    default to the real implementations; regression tests use them to
    prove each oracle actually catches the class of bug it exists
    for. *)

type failure = {
  oracle : string;
  seed : int;
  detail : string;  (** multi-line human description, shrunk repro inside *)
  repro : string;  (** runnable command replaying exactly this failure *)
}

type verdict = Pass | Fail of failure

type t = { name : string; run : seed:int -> verdict }

val conservativeness :
  ?weaken:(Perf.Cost_vec.t -> Perf.Cost_vec.t) -> unit -> t
(** [weaken] post-processes the analysed worst-case bound (default
    identity); tests pass a deliberately-too-small bound. *)

val cache_equivalence :
  ?check_cached:(Solver.Constr.t list -> Solver.Solve.result) -> unit -> t
(** [check_cached] is the memoized solve under test (default
    {!Solver.Cache.check}); tests substitute one that returns stale
    verdicts. *)

val obs_neutrality :
  ?analyze:(config:Bolt.Pipeline.Config.t -> Ir.Program.t -> Bolt.Pipeline.t) ->
  unit ->
  t

val concrete_symbex_agreement :
  ?explore:
    (concrete:Net.Packet.t * int * int ->
    models:Symbex.Model.registry ->
    Ir.Program.t ->
    Symbex.Engine.result) ->
  unit ->
  t
(** Symbolic execution over a fully-concrete packet must agree with the
    direct interpreter: exactly one feasible path (none iff the
    interpreter is stuck), the same outcome kind, and a fidelity-checked
    replay of the path with identical IC and MA — both sides are
    instances of the same {!Ir.Eval} walker, so any disagreement is a
    bug in one of the domains.  [explore] substitutes the engine under
    test (default {!Symbex.Engine.explore}); tests pass one that
    tampers with the returned path's assumed decisions. *)

val specialized_interp_agreement :
  ?specialize:
    (Ir.Program.t ->
    meter:Exec.Meter.t ->
    mode:Exec.Interp.mode ->
    Exec.Specialize.t) ->
  unit ->
  t
(** The specialized production engine and the interpreter must tell the
    same story on any subject and stream: the program is bound to the
    frozen configuration ({!Exec.Specialize.bind}) and replayed on an
    untraced meter, comparing outcome, costs, observations and packet
    bytes per packet (Stuck packets by message — the charge-equivalence
    contract, DESIGN §12), once on the null model and once on the
    coupled {!Recording} model, whose per-packet access log must match
    as well.  Registry subjects get one fresh data-structure
    environment per engine so state evolves independently but
    identically.  [specialize] substitutes the binder under test
    (default {!Exec.Specialize.bind}); tests pass one that binds a
    tampered program. *)

val stateful_model : ?tamper:(int list -> int list) -> Stateful.t -> t
(** Model-agreement oracle for one stateful case
    ([stateful_<case>_model]): generate a command sequence, replay it
    against the real structure and its {!Fake} side by side, fail on the
    first observable disagreement, shrinking the sequence to a minimal
    replayable trace.  [tamper] corrupts the real structure's replies
    before the comparison (default: identity) — the fault-injection hook
    the catch tests use. *)

val stateful_bounds : ?weaken:(Perf.Cost_vec.t -> Perf.Cost_vec.t) -> Stateful.t -> t
(** Contract-bounds oracle for one stateful case
    ([stateful_<case>_bounds]): the structure's [Perf.Ds_contract]
    branch for the taken path must upper-bound the metered cost of every
    command in the sequence — expiry storms, rehash cliffs and allocator
    exhaustion included.  [weaken] shrinks the branch cost before the
    check (default: identity) — the fault-injection hook. *)

val stateful : unit -> t list
(** Both stateful oracles for every {!Stateful.all} case (20 oracles). *)

val stateful_names : unit -> string list

val all : unit -> t list
(** The six stateless oracles with their real implementations (the
    default [bolt fuzz] set; stateful oracles are opted into with
    [--stateful]). *)

val names : unit -> string list

val find : string -> t
(** Looks up stateless and stateful oracles by name; raises
    [Invalid_argument] listing the known names on a miss. *)
