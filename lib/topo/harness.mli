(** Measured end-to-end replay: the empirical side of the topology
    contract.

    One config-specialized engine ({!Exec.Specialize}, via
    {!Nf.Registry.specialize}) per node, stateful across packets; a
    {!transit} pushes one packet node-to-node along the graph's edges —
    the port the packet leaves on selects the edge, exactly as the
    symbolic walk routes — and records per-hop measured costs plus PCV
    observations, so every transit can be checked against the composed
    contract bound evaluated at the observed binding (the one
    {!Perf.Bound} check [Experiments.Validate] runs too). *)

type hop = {
  node : string;
  outcome : Exec.Interp.outcome;
  ic : int;
  ma : int;
  cycles : int;
  observations : (Perf.Pcv.t * int) list;
}

type transit = {
  hops : hop list;
  egress : Analysis.egress;
  ic : int;  (** summed over hops *)
  ma : int;
  cycles : int;
}

type t

val create : ?hw:Hw.Model.t -> Graph.t -> t
(** Raises [Invalid_argument] on an ill-formed graph.  All nodes charge
    into the one [hw] model (default {!Hw.Model.realistic}), with a cache
    boundary per transit — the packet crosses the chain on one machine. *)

val graph : t -> Graph.t

val specialized : t -> (string * bool) list
(** Which nodes run a fully specialized body (vs the generic compiled
    runner). *)

val transit : t -> ?in_port:int -> ?now:int -> Net.Packet.t -> transit

val replay : t -> Workload.Stream.t -> transit list

(** {1 Soundness: measured vs composed bound} *)

type violation = Perf.Bound.violation = {
  packet_index : int;
  metric : Perf.Metric.t;
  bound : int;
  measured : int;
  binding : Perf.Pcv.binding;
}

type report = Perf.Bound.report = {
  packets : int;
  violations : violation list;
  worst_headroom_pct : float;
}

val check : t -> worst:Perf.Cost_vec.t -> Workload.Stream.t -> report
(** Replay the stream and check every packet with {!Perf.Bound}: [worst]
    (IC and MA) at the packet's observed PCV binding, max-merged across
    hops. *)

val pp_report : Format.formatter -> report -> unit
