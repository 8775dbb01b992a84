(** Satisfiability and model extraction.

    The decision procedure is interval (bounds) propagation to a fixpoint
    followed by branch-and-prune search, over the DNF expansion of the
    boolean structure.  On the affine constraints produced by the symbolic
    engine — comparisons of bounded header fields and model outputs against
    constants and against each other — this is complete; resource caps make
    it return [Unknown] rather than diverge on anything harder.

    Each conjunct is compiled once into flat [int] rows ([Le] one row,
    [Eqz] two) over densely numbered symbols, and the interval store is a
    pair of [int] arrays.  Propagation re-runs only the rows whose symbols
    moved (at most 200 rounds); the search splits the widest unfixed
    symbol, lowest id first, and builds a {!Model.t} only for the answer.
    The kernel keeps no global state, so it runs unchanged on pool
    domains. *)

type result = Sat of Model.t | Unsat | Unknown

val check : ?max_conjuncts:int -> ?max_nodes:int -> Constr.t list -> result
(** [check constraints] decides the conjunction of [constraints].
    [max_conjuncts] caps the DNF expansion (default 4096); [max_nodes] caps
    the search tree per conjunct (default 20_000). *)

val is_sat : ?max_conjuncts:int -> ?max_nodes:int -> Constr.t list -> bool
(** [is_sat cs] is false iff {!check} returns [Unsat]: [Unknown] counts
    as satisfiable for conservativeness, because a path we cannot prove
    infeasible must be kept, or the contract could under-approximate. *)

val model_exn : Constr.t list -> Model.t
(** [model_exn cs] returns a model; raises [Failure] on [Unsat]/[Unknown]. *)

val pp_result : Format.formatter -> result -> unit
