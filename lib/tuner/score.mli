(** Analytic scoring of a grid point: the spec's derived contract —
    the same [Perf] algebra the pipeline certifies — instantiated with
    the PCV distribution the Distiller harvested from the workload.
    Nothing here measures: the only replay is {!harvest}, which records
    PCV observations (under the null model), and every score is the
    symbolic worst case evaluated at those observations. *)

type sample = (Perf.Pcv.t * int) list array
(** Per-packet PCV observations, in stream order. *)

val harvest : Nf.Registry.entry -> Workload.Stream.t -> sample
(** One compiled-path Distiller replay, null hardware model. *)

val percentile : int array -> int -> int
(** Nearest-rank percentile over a sorted column. *)

val analyze : Nf.Registry.entry -> Bolt.Pipeline.t
(** Run the certification pipeline for the entry's program against its
    contracts. *)

type prediction = {
  p50_ic : int;
  p99_ic : int;
  p50_ma : int;
  p99_ma : int;
  p50_cycles : int;
  p99_cycles : int;
}

val predict : worst:Perf.Cost_vec.t -> sample -> prediction
(** Predicted percentiles: evaluate [worst] at every packet's binding
    ({!Perf.Bound.eval}) and take nearest-rank p50/p99 per metric.  Each
    per-packet figure is a sound upper bound on that packet's cost. *)

val exposure_ic : Bolt.Pipeline.t -> Symbex.Iclass.t list -> int option
(** Adversarial exposure: instruction bound at each class's own
    worst-case bindings, maximized over fully-bound classes ([None] if
    no class binds every PCV it mentions). *)
