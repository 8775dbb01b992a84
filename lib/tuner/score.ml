(* Analytic scoring: instantiate a spec's derived contract with the PCV
   distribution a Distiller replay harvested from the workload.

   The pricing is the symbolic per-packet worst case the pipeline
   certifies (Bolt.Pipeline.worst_case) evaluated by Perf.Bound at each
   packet's observed PCVs.  Every contract polynomial has non-negative
   coefficients, so each per-packet figure is a sound upper bound on that
   packet's cost and the predicted percentiles dominate the measured
   ones pointwise. *)

type sample = (Perf.Pcv.t * int) list array
(** Per-packet PCV observations, in stream order. *)

let harvest (entry : Nf.Registry.entry) stream =
  let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
  let t =
    Distiller.Run.run ~hw:(Hw.Model.null ()) ~dss entry.Nf.Registry.program
      stream
  in
  Array.init (Distiller.Run.count t) (Distiller.Run.observations t)

(* Nearest-rank percentile over a sorted column. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Score.percentile: empty column";
  let rank = (p * n) + 99 in
  sorted.(max 0 ((rank / 100) - 1))

let analyze (entry : Nf.Registry.entry) =
  let config =
    Bolt.Pipeline.Config.(default |> with_contracts entry.Nf.Registry.contracts)
  in
  Bolt.Pipeline.analyze ~config entry.Nf.Registry.program

type prediction = {
  p50_ic : int;
  p99_ic : int;
  p50_ma : int;
  p99_ma : int;
  p50_cycles : int;
  p99_cycles : int;
}

let predict ~worst (sample : sample) =
  let acc = Perf.Bound.acc (Perf.Bound.compile worst) in
  let n = Array.length sample in
  let ic = Array.make n 0 and ma = Array.make n 0 and cycles = Array.make n 0 in
  Array.iteri
    (fun i observations ->
      Perf.Bound.clear acc;
      Perf.Bound.observe acc observations;
      ic.(i) <- Perf.Bound.eval acc Perf.Metric.Instructions;
      ma.(i) <- Perf.Bound.eval acc Perf.Metric.Memory_accesses;
      cycles.(i) <- Perf.Bound.eval acc Perf.Metric.Cycles)
    sample;
  List.iter (Array.sort compare) [ ic; ma; cycles ];
  {
    p50_ic = percentile ic 50;
    p99_ic = percentile ic 99;
    p50_ma = percentile ma 50;
    p99_ma = percentile ma 99;
    p50_cycles = percentile cycles 50;
    p99_cycles = percentile cycles 99;
  }

(* The capacity-dependent adversarial exposure: the contract evaluated
   at each class's own worst-case bindings (e.g. NAT1 binds e to the
   table capacity), maximized over the classes that bind every PCV they
   mention. *)
let exposure_ic t classes =
  List.fold_left
    (fun acc cls ->
      match Bolt.Pipeline.predict t cls Perf.Metric.Instructions with
      | Ok v -> Some (max v (Option.value acc ~default:0))
      | Error _ -> acc)
    None classes
