(** Contract validation against live traffic.

    Replays a traffic sample through an NF's production build and checks
    every packet against the contract's worst-case expression evaluated
    at that packet's own distilled PCVs — the defining soundness property
    of a performance contract (paper §2.2), as a tool.  A violation means
    either the library contract or the NF's stateless analysis is wrong;
    the report pinpoints the packet and the PCV binding. *)

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

val run :
  worst:Perf.Cost_vec.t ->
  dss:Exec.Ds.env ->
  Ir.Program.t ->
  Workload.Stream.t ->
  report
(** [worst] is typically [Bolt.Pipeline.worst_case]; IC and MA are
    checked (cycles depend on the hardware model, not the trace). *)

val pp : Format.formatter -> report -> unit
