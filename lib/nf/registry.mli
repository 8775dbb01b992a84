(** The NF catalogue.

    One [entry] bundles everything a driver needs to analyse or run a
    network function — its IR program, the contract library for its
    stateful calls, its input classes, and a [setup] that builds the
    production data structures — so the CLI, bench, examples and tests
    look NFs up by name instead of re-wiring those four by hand.

    Every entry is {e derived} from a value-level {!Spec.t} by
    {!of_spec}; the default catalogue is [Spec.defaults ()] mapped
    through it, so the tuner's search space and the registry's
    construction path share one definition. *)

type frozen = {
  knobs : Spec.knob list;
      (** typed configuration the default [setup] bakes in — what a
          config-specialized stream freezes against *)
}
(** Frozen-config descriptor for NFs whose per-stream configuration is
    fixed (static router FIB, firewall ruleset, table geometries). *)

type entry = {
  name : string;
  spec : Spec.t;  (** the value-level description this entry was built from *)
  program : Ir.Program.t;
  contracts : Perf.Ds_contract.library;
  classes : Symbex.Iclass.t list;
  setup : Dslib.Layout.allocator -> Exec.Ds.env;
      (** builds the production data-structure environment (empty for
          stateless NFs) *)
  frozen : frozen option;
      (** present for the benched NFs whose configuration is frozen per
          stream and therefore eligible for {!Exec.Specialize} *)
}

val of_spec : Spec.t -> entry
(** Derive a full entry — program, contracts, classes, setup, frozen
    knobs — from a value-level spec.  This is the only construction
    path; [all ()] is [Spec.defaults ()] mapped through it. *)

val all : unit -> entry list
(** Every registered NF, in presentation order. *)

val names : unit -> string list

val find : string -> entry
(** Look an NF up by [name]; raises [Invalid_argument] with the list of
    known names on a miss. *)

val specialize : entry -> meter:Exec.Meter.t -> Exec.Specialize.t * Exec.Ds.env
(** Build a production environment with a fresh allocator, compile the
    program and bind it to [meter] via {!Exec.Specialize.bind}.  Returns
    the bound stream (specialized when every call site has a fast path,
    the generic compiled runner otherwise) and the environment, so
    callers can drive the interpreter against the same state. *)
