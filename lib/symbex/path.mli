(** Execution paths produced by the symbolic engine. *)

type call = {
  index : int;  (** position in call order (stub order for replay) *)
  instance : string;
  kind : string;
  meth : string;
  tag : string;  (** abstract-state branch taken *)
  ret : Solver.Linexpr.t;  (** symbolic return value *)
}

type pcv_loop = { name : string; bound : int }

type action = Forward of Value.t | Drop | Flood

type t = {
  id : int;
  constraints : Solver.Constr.t list;
  checked : int;
      (** the first [checked] members of [constraints] are the set the
          path's last accepted feasibility check covered (the explore's
          [accepted] when the path never forked); the rest were added
          after it, unchecked *)
  calls : call list;  (** in call order *)
  loops : pcv_loop list;
  decisions : bool list;
      (** every [If]/[Unroll] condition outcome assumed along the path,
          in program order (PCV-loop interiors excluded) — a concrete
          replay must reproduce exactly this sequence to be priced as
          this path *)
  action : action;
  view : Spacket.view;  (** the symbolic output packet *)
}

val split_checked : t -> Solver.Constr.t list * Solver.Constr.t list
(** [(checked prefix, unchecked tail)] of [constraints]. *)

val tags_of : t -> instance:string -> meth:string -> string list
(** Tags of all this path's calls to [instance.meth]. *)

val pp : Format.formatter -> t -> unit
