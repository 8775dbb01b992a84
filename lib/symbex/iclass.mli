(** Input packet classes (paper §2.2).

    A class is a specification of which inputs belong to it — a predicate
    over the shared input-packet symbols — plus the abstract-state
    assumptions ("established flow", "no expirations") expressed as
    required model branch tags, plus the PCV binding to use when the
    operator asks for a concrete number. *)

type requirement = {
  instance : string;
  meth : string;
  tag : string;  (** every call to instance.meth must have taken this tag *)
}

type t = {
  name : string;
  description : string;
  predicate : Engine.result -> Solver.Constr.t list;
  requires : requirement list;
  forbids : (string * string) list;
      (** [(instance, meth)] pairs a member path must never call. *)
  bindings : Perf.Pcv.binding;
}

val make :
  name:string -> ?description:string ->
  ?predicate:(Engine.result -> Solver.Constr.t list) ->
  ?requires:requirement list -> ?forbids:(string * string) list ->
  ?bindings:Perf.Pcv.binding -> unit -> t

val req : string -> string -> string -> requirement
(** [req instance meth tag]. *)

val admits :
  t -> predicate:Solver.Constr.t list -> tags:Path.t -> Solver.Constr.t list ->
  bool
(** The membership test.  [admits t ~predicate ~tags constraints]: every
    requirement holds on [tags] (at least one call to the method, all with
    the required tag), no forbidden method is called on it, and
    [predicate] — [t.predicate] already applied to the engine result, so
    a caller judging many paths computes it once — is satisfiable together
    with [constraints].

    Precondition: [constraints] is satisfiable — a path or route that
    exploration accepted, or one that already has a witness.  The test
    is {!Solver.Cache.feasible} with [constraints] as [known] and the
    predicate as the seed, so it solves only the constraints that share
    symbols with the predicate. *)

val matches : t -> Engine.result -> Path.t -> bool
(** Path membership: {!admits} with the path's own tags and constraints
    (the same precondition: the path has a witness, as every path
    the analysis pipeline prices does).
    [matches t result] applies the predicate once for every path it is
    given. *)

(** {1 Predicate helpers} *)

val field : Engine.result -> Ir.Expr.width -> int -> Solver.Linexpr.t
(** Big-endian input field at a byte offset, as an affine term over the
    input byte symbols. *)

val field_eq : Ir.Expr.width -> int -> int -> Engine.result ->
  Solver.Constr.t list
val field_ne : Ir.Expr.width -> int -> int -> Engine.result ->
  Solver.Constr.t list
val in_port_is : int -> Engine.result -> Solver.Constr.t list
val conj_preds :
  (Engine.result -> Solver.Constr.t list) list ->
  Engine.result -> Solver.Constr.t list
