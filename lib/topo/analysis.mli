(** Network-wide contract derivation over a {!Graph} (paper §3.4).

    Walks the graph from its ingress — every node (program and contract
    library from {!Nf.Registry.of_spec}) symbolically executed on its
    predecessor's symbolic output packet under the accumulated
    constraints, infeasible route tuples pruned by the solver — replays
    each route's witness through every traversed node, and joins the
    per-route replayed costs into per-(egress, input-class) end-to-end
    bounds with {!Perf.Cost_vec.max_upper_list}, the same conservative
    monomial-wise-max coalescing `Perf.Contract` uses.

    A port edge, and the complement edge a forwarded value takes when no
    declared port matches, is judged by {!Solver.Cache.feasible}: [known]
    is the path's checked prefix ({!Symbex.Path.split_checked}), which
    exploration accepted, and the seed is the edge's [out_port = p] (or
    [<> p] for every declared [p]) with the value's side constraints and
    the path's unchecked tail.  Each route's witness is still solved on
    its whole constraint set.  Two spans time the phases: [topo.walk]
    (exploration and edge checks) and [topo.finalize] (witness solves and
    replays). *)

type egress =
  | Exited of { node : string; label : string }
  | Dropped of string
  | Flooded of string

type step = {
  node : string;
  path : Symbex.Path.t;
  in_port : Solver.Sym.t;  (** that node's ingress-port symbol *)
  now : Solver.Sym.t;
}

type route = {
  steps : step list;  (** ingress first *)
  egress : egress;
      (** [Exited] over an [Exit] edge, or with {!Graph.default_exit} on a
          port with no declared edge *)
  constraints : Solver.Constr.t list;
      (** joint constraints of the whole route, including the
          port-selection constraints of traversed edges *)
  cost : Perf.Cost_vec.t;  (** sum of per-node replayed costs *)
}

type t = {
  graph : Graph.t;
  entries : (string * Nf.Registry.entry) list;  (** node name → entry *)
  routes : route list;
  unsolved : int;
      (** routes whose witness could not be solved or replayed —
          excluded from the bound but counted *)
  infeasible_routes : int;
      (** route tuples pruned because a port-selection constraint was
          unsatisfiable with the accumulated path constraints *)
  input : Symbex.Spacket.input;
  ingress_engine : Symbex.Engine.result;
}

val run :
  ?max_paths:int -> ?models:Symbex.Model.registry -> Graph.t -> t
(** Raises [Invalid_argument] (with every {!Graph.error} rendered) on an
    ill-formed graph. *)

val worst : t -> Perf.Cost_vec.t
(** End-to-end bound over every route. *)

val naive : t -> Perf.Cost_vec.t
(** The sum of every node's standalone worst case — what an operator
    without the joint walk would have to provision for. *)

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
