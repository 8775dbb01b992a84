(** Beyond the paper's evaluation: the extensions its §6 sketches, plus
    ablations of the design choices DESIGN.md calls out. *)

val throughput_table : Format.formatter -> unit
(** Guaranteed single-core throughput floors derived from the cycle
    contracts (paper §6 future work), per NF class, with and without
    batched I/O amortisation — against the observed throughput of the
    production build on a class-conforming workload. *)

val chain3_graph : unit -> Topo.Graph.t
(** Firewall → policer → static router, linked by [Any] edges. *)

val chain3 : Format.formatter -> unit
(** A three-NF chain (firewall → policer → static router) analysed
    jointly, versus naive addition of the three worst cases. *)

val ablation_coalescing : Format.formatter -> unit
(** What class-level coalescing costs in precision and buys in
    legibility: per class, the coalesced bound next to the tightest and
    loosest member-path bounds. *)

val ablation_hw_model : Format.formatter -> unit
(** What the conservative model's L1 locality tracking (§3.5) buys:
    cycle bounds with and without it. *)

val ablation_linearization : Format.formatter -> unit
(** What the solver's exact mask/shift/division linearization buys:
    feasible path counts and class separation with it on and off. *)
