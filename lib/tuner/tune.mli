(** The contract-guided autotuner.

    [run ~nf ()] enumerates a deterministic grid of value-level specs
    (backends × capacities), prices every point {e analytically} — the
    spec's derived contract instantiated with a PCV distribution the
    Distiller harvested from the family workload, one harvest and one
    certification-pipeline run per backend — emits the Pareto front over
    (predicted p50 cycles, predicted p99 cycles, memory footprint), and
    confirms the front's winner by replaying the same workload on the
    specialized path, reporting predicted-vs-measured error.

    The result is a pure function of [(nf, backends, capacities,
    packets, seed)]; [jobs] only parallelizes the pipeline and never
    changes the output. *)

type point = {
  index : int;  (** position in grid-enumeration order *)
  spec : Nf.Spec.t;
  backend : string;
  knobs : (string * string) list;
  footprint_bytes : int;
  predicted : Score.prediction;
  exposure_ic : int option;
      (** adversarial instruction bound at the class worst-case bindings
          (grows with capacity), [None] when no class is fully bound *)
  on_front : bool;
}

type validation = {
  packets : int;
  measured_p50_ic : int;
  measured_p99_ic : int;
  measured_p50_ma : int;
  measured_p99_ma : int;
  measured_p50_cycles : int;
  measured_p99_cycles : int;
  err_p50_ic_pct : int;  (** overestimate %, (pred − meas) · 100 / meas *)
  err_p99_ic_pct : int;
  err_p50_cycles_pct : int;
  err_p99_cycles_pct : int;
  sound : bool;
      (** every packet's measured ic and ma stayed under the contract
          evaluated at that packet's own observed PCVs *)
}

type result = {
  nf : string;
  seed : int;
  jobs : int;
  points : point list;  (** every evaluated point, enumeration order *)
  front : point list;  (** the non-dominated subset, same order *)
  winner : point;  (** min (p99 cycles, footprint, p50 cycles, index) *)
  validation : validation;
}

val objectives : point -> Pareto.objectives

val run :
  nf:string ->
  ?backends:string list ->
  ?capacities:int list ->
  ?packets:int ->
  ?jobs:int ->
  ?seed:int ->
  unit ->
  result
(** Raises [Invalid_argument] (naming the tunable NFs) for NFs without a
    tuning axis, and on unknown backend names. *)

val to_json : result -> Perf.Json.t
val pp : Format.formatter -> result -> unit
