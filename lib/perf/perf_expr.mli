(** Performance expressions: multivariate polynomials over PCVs.

    A performance contract maps each input class to one of these
    expressions, e.g. the VigNAT contract's
    [359·e + 30·c + 18·t + 80·e·c + 38·e·t + 1030] (paper Table 6).
    Coefficients are machine integers; PCVs always denote non-negative
    counts, which makes the monomial-wise {!max} a sound conservative
    upper bound. *)

type t
(** A polynomial with integer coefficients over {!Pcv.t} variables.
    Values are normalised: no zero coefficients, monomials sorted. *)

(** {1 Construction} *)

val zero : t
val const : int -> t

val pcv : Pcv.t -> t
(** [pcv v] is the degree-1 polynomial [1·v]. *)

val term : int -> Pcv.t list -> t
(** [term k vs] is the single monomial [k · v1 · v2 · …].  Repeated
    variables raise the exponent: [term 3 [e; e]] is [3·e²]. *)

val add : t -> t -> t
val sum : t list -> t
val scale : int -> t -> t
val mul : t -> t -> t
val add_const : int -> t -> t

(** {1 Conservative combination} *)

val max_upper : t -> t -> t
(** [max_upper a b] is the monomial-wise maximum of [a] and [b]: a
    polynomial that dominates both on every point with non-negative
    coordinates.  This is how BOLT coalesces multiple execution paths into
    a single conservative expression (paper §3.2).  Requires both arguments
    to have non-negative coefficients; raises [Invalid_argument]
    otherwise. *)

val max_upper_list : t list -> t
(** Fold of {!max_upper}; [max_upper_list []] is {!zero}. *)

(** {1 Observation} *)

val eval : Pcv.binding -> t -> (int, Pcv.t) result
(** [eval binding t] evaluates [t], or returns [Error v] naming the first
    PCV missing from [binding]. *)

val eval_exn : Pcv.binding -> t -> int
(** Like {!eval}; raises [Invalid_argument] on a missing PCV. *)

val const_part : t -> int
(** The coefficient of the empty monomial. *)

val pcvs : t -> Pcv.t list
(** PCVs occurring with non-zero coefficient, sorted, without duplicates. *)

val is_const : t -> bool
val is_nonneg : t -> bool
(** [is_nonneg t] is true when all coefficients are non-negative, so [t] is
    monotone in every PCV over the non-negative orthant. *)

val degree : t -> int

val terms : t -> ((Pcv.t * int) list * int) list
(** All monomials as [(variable, exponent) list, coefficient] pairs, in
    display order (highest degree first, constant last). *)

val of_terms : ((Pcv.t * int) list * int) list -> t
(** Inverse of {!terms}; accepts unsorted input. *)

val coefficient : t -> Pcv.t list -> int
(** [coefficient t vs] is the coefficient of the monomial [v1·v2·…]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val dominates : t -> t -> bool
(** [dominates a b] holds when every coefficient of [a] is at least the
    corresponding coefficient of [b] — a sufficient (coefficient-wise)
    condition for [a >= b] over non-negative PCVs. *)

val pp : Format.formatter -> t -> unit
(** Paper-style rendering, highest-degree terms first and the constant
    last: [245·e + 144·c + 82·e·c + 882]. *)

val to_string : t -> string
(** What {!pp} prints. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s text to a buffer. *)
