(** The Distiller's instrumented replay (paper §4).

    Feeds a traffic sample through the production build of the NF, logging
    the PCV values each packet induced.  The Distiller never changes the
    contract — it tells the user which contract assumptions held for each
    packet of the trace.

    The replay runs on the config-specialized hot path
    ({!Exec.Specialize}: on every completed packet the same outcome,
    costs and observations as the interpreter, realistic model included)
    and streams every packet straight
    into flat arrays: per-packet costs and outcomes are columns, per-call
    PCV observations live in one flat stream with per-packet offsets, and
    per-PCV aggregate columns (max and sum) are folded in as the replay
    runs.  Memory stays proportional to the trace with no per-packet
    heap structure, and every query below is a precomputed-column read —
    nothing rescans observations per (packet, PCV) pair. *)

type packet_report = {
  index : int;
  outcome : Exec.Interp.outcome;
  ic : int;
  ma : int;
  cycles : int;  (** realistic-model latency of this packet *)
  observations : (Perf.Pcv.t * int) list;
      (** per-call PCV observations during this packet *)
}
(** A per-packet view, materialized on demand by {!report} / {!iter} —
    results no longer retain a list of these. *)

type t
(** A finished replay: flat arrays indexed by packet. *)

val run :
  ?hw:Hw.Model.t -> dss:Exec.Ds.env -> Ir.Program.t -> Workload.Stream.t ->
  t
(** Replay the stream (warm caches persist across packets; pass [hw] to
    share a simulator across several runs). *)

val run_pcap :
  ?hw:Hw.Model.t -> dss:Exec.Ds.env -> Ir.Program.t -> path:string ->
  ?in_port:int -> unit -> t
(** Convenience: replay a pcap file. *)

val count : t -> int
(** Packets replayed. *)

val ic : t -> int -> int
val ma : t -> int -> int
val cycles : t -> int -> int

val observations : t -> int -> (Perf.Pcv.t * int) list
(** Packet [i]'s per-call observations, in program order. *)

val report : t -> int -> packet_report
(** The packet's view, built on demand. *)

val iter : t -> (packet_report -> unit) -> unit
val fold : t -> ('a -> packet_report -> 'a) -> 'a -> 'a

val pcv_values : t -> Perf.Pcv.t -> int list
(** Per-packet values of one PCV (max over the packet's calls; 0 when the
    packet never exercised it).  A precomputed-column read. *)

val pcv_sums : t -> Perf.Pcv.t -> int list
(** Per-packet sums (e.g. total expirations each packet triggered). *)

val latencies : t -> int list
val max_ic : t -> int
val max_ma : t -> int
val max_cycles : t -> int
