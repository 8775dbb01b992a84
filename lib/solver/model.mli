(** Concrete assignments produced by the solver.

    A model assigns an integer to every symbol the solver saw; symbols it
    never saw are unconstrained and default to their lower bound, which is
    how BOLT concretises the "don't care" bytes of a witness packet. *)

type t

val empty : t
val add : Sym.t -> int -> t -> t
val value : t -> Sym.t -> int
(** [value m s] is the assignment of [s], or [s]'s lower bound when [m]
    does not constrain [s]. *)

val mem : t -> Sym.t -> bool

val union : t -> t -> t
(** [union a b] assigns every symbol of [a] and of [b]; where both
    assign one, [a]'s value wins. *)

val bindings : t -> (Sym.t * int) list
val eval : t -> Linexpr.t -> int

val satisfies : t -> Constr.t list -> bool
(** [satisfies m cs]: every constraint of [cs] holds at [m], each symbol
    read with {!value} (so an unassigned one at its lower bound), in the
    same native-int arithmetic {!Solve} uses ([Le l] is [eval m l <= 0],
    [Eqz l] is [eval m l = 0]).  When every value [m] assigns lies
    within its symbol's bounds, [true] means [cs] is satisfiable. *)

val pp : Format.formatter -> t -> unit
