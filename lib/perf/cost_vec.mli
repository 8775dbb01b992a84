(** A triple of performance expressions, one per supported metric.

    Contracts are metric-specific; in practice BOLT derives all three
    metrics in one analysis pass, so bundling them is convenient. *)

type t = {
  ic : Perf_expr.t;  (** instruction count *)
  ma : Perf_expr.t;  (** memory accesses *)
  cycles : Perf_expr.t;  (** execution cycles under the hardware model *)
}

val zero : t
val make : ic:Perf_expr.t -> ma:Perf_expr.t -> cycles:Perf_expr.t -> t

val of_consts : ic:int -> ma:int -> cycles:int -> t
(** Constant-cost vector, e.g. for a straight-line code fragment. *)

val get : t -> Metric.t -> Perf_expr.t
val add : t -> t -> t
val sum : t list -> t
val scale : int -> t -> t

val max_upper : t -> t -> t
(** Metric-wise conservative maximum (see {!Perf_expr.max_upper}). *)

val max_upper_list : t list -> t

val eval : Pcv.binding -> t -> Metric.t -> (int, Pcv.t) result
val eval_exn : Pcv.binding -> t -> Metric.t -> int
val pcvs : t -> Pcv.t list
val equal : t -> t -> bool
val lines : t -> string list
(** The [IC], [MA] and [cycles] rows {!pp} prints, unindented. *)

val pp : Format.formatter -> t -> unit
(** {!lines} in one vertical box. *)
