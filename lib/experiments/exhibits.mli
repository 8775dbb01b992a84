(** Contract exhibits: the paper's contract tables and the chain
    experiment. *)

val table1 : Format.formatter -> unit
(** The stylised running-example contract (paper Table 1) plus the
    BOLT-derived full-stack contract of the same trie router. *)

val table2 : Format.formatter -> unit
(** The lpmGet method contract (paper Table 2). *)

val table4 : Format.formatter -> unit
(** Bridge contract by learn branch, showing the rehash cliff. *)

val table6 : Format.formatter -> unit
(** VigNAT contract over the five traffic types. *)

val fw_router_graph : unit -> Topo.Graph.t
(** The firewall→router chain of Table 5c / Figure 3 as a first-class
    topology ([Any] edge: follow the forward regardless of port). *)

type chain = {
  firewall_worst : Perf.Cost_vec.t;
  router_worst : Perf.Cost_vec.t;
  naive_add : Perf.Cost_vec.t;
  composite : Perf.Cost_vec.t;
  measured_firewall : Harness.measurement;
  measured_router : Harness.measurement;
  measured_chain : Harness.measurement;
}

val chain_experiment : ?packets:int -> unit -> chain
(** Firewall + static-router composition (paper §3.4, Table 5,
    Figure 3): contracts for each NF, their naive sum, the jointly
    analysed composite, and measured runs of the chain. *)

val table5 : Format.formatter -> unit
val figure3 : ?packets:int -> Format.formatter -> unit
