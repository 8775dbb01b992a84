(** Topologies as first-class programs: a small name-level DSL over
    {!Nf.Spec}-derived network functions.

    Nodes are NFs (by value-level spec); edges route on the egress
    outcome — an edge with selector [Port p] is taken when the source NF
    forwards the packet on port [p], an [Any] edge regardless of the
    port; [Drop]/[Flood] always terminate the route at the node.  A
    target is either another node or a labelled exit out of the
    topology.

    A graph is plain data; {!validate} checks it is a well-formed DAG
    (acyclic, no dangling endpoints, every node reachable from the
    ingress, no duplicate or shadowed port selectors) and returns the
    full list of problems rather than stopping at the first. *)

type sel = Any | Port of int
type target = Node of string | Exit of string

type node = { name : string; spec : Nf.Spec.t }
type edge = { src : string; sel : sel; target : target }

type t = {
  name : string;
  description : string;
  ingress : string;
  nodes : node list;
  edges : edge list;
}

val node : string -> Nf.Spec.t -> node
val edge : string -> sel -> target -> edge

val make :
  name:string ->
  ?description:string ->
  ingress:string ->
  nodes:node list ->
  edges:edge list ->
  unit ->
  t
(** Build without validating — pair with {!validate} for error
    reporting, or use {!validated}. *)

val validated :
  name:string ->
  ?description:string ->
  ingress:string ->
  nodes:node list ->
  edges:edge list ->
  unit ->
  t
(** Like {!make} but raises [Invalid_argument] with every rendered
    {!error} if the graph is ill-formed. *)

type error =
  | Duplicate_node of string
  | Unknown_ingress of string
  | Dangling_endpoint of { src : string; dest : string }
      (** an edge names a node that does not exist (either end) *)
  | Duplicate_port of { src : string; port : int }
  | Mixed_any of string
      (** an [Any] edge alongside other edges out of the same node *)
  | Cycle of string list  (** one witness cycle, in edge order *)
  | Unreachable of string  (** node not reachable from the ingress *)

val validate : t -> error list
(** Empty list ⇔ well-formed. *)

val pp_error : Format.formatter -> error -> unit
val pp : Format.formatter -> t -> unit
(** One-line-per-node summary of the topology. *)

val default_exit : string
(** Label of a forward on a port with no declared edge (["out"]): the
    packet leaves the topology there. *)

val find_node : t -> string -> node
(** Raises [Not_found]. *)

val out_edges : t -> string -> edge list
