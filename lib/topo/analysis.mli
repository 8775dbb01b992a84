(** Network-wide contract derivation over a {!Graph}.

    Lowers the name-level graph onto {!Bolt.Dag} (each node's program
    and contract library coming from {!Nf.Registry.of_spec}), walks it —
    every node symbolically executed on its predecessor's symbolic
    output packet, infeasible route tuples pruned by the solver — and
    joins the per-route replayed costs into per-(egress, input-class)
    end-to-end bounds with {!Perf.Cost_vec.max_upper_list}, the same
    conservative monomial-wise-max coalescing `Perf.Contract` uses. *)

type egress =
  | Exited of { node : string; label : string }
  | Dropped of string
  | Flooded of string

type step = { node : string; path : Symbex.Path.t }

type route = {
  steps : step list;  (** ingress first *)
  egress : egress;
  constraints : Solver.Constr.t list;
  cost : Perf.Cost_vec.t;
}

type t = {
  graph : Graph.t;
  entries : (string * Nf.Registry.entry) list;  (** node name → entry *)
  routes : route list;
  unsolved : int;
  infeasible_routes : int;
  input : Symbex.Spacket.input;
  ingress_engine : Symbex.Engine.result;
}

val run :
  ?max_paths:int ->
  ?jobs:int ->
  ?models:Symbex.Model.registry ->
  Graph.t ->
  t
(** Raises [Invalid_argument] (with every {!Graph.error} rendered) on an
    ill-formed graph.  Deterministic at any [jobs] level. *)

val worst : t -> Perf.Cost_vec.t
(** End-to-end bound over every route. *)

val equal_egress : egress -> egress -> bool
val pp_egress : Format.formatter -> egress -> unit

val egresses : t -> egress list
(** Distinct, in order of first appearance. *)

val egress_cost : t -> egress -> Perf.Cost_vec.t * int
(** Bound and member-route count for one egress. *)

val ingress_classes : t -> Symbex.Iclass.t list
(** The input classes of the ingress NF — the traffic classes an
    end-to-end contract is expressed over. *)

val class_cost : t -> Symbex.Iclass.t -> Perf.Cost_vec.t * int
(** End-to-end bound for an ingress input class: member routes must meet
    the class's tag requirements on the ingress path and have joint
    constraints satisfiable with the class predicate. *)

val class_breakdown :
  t ->
  Symbex.Iclass.t ->
  (Perf.Cost_vec.t * int) * (egress * (Perf.Cost_vec.t * int)) list
(** [class_breakdown t cls] is {!class_cost} together with the bound and
    member count of each egress the class reaches, in {!egresses} order,
    from one membership pass over the routes. *)

val contract : t -> Perf.Contract.t
(** Per-(input-class, egress) end-to-end contract rows, plus one
    all-egress row per class. *)
