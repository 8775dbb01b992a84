(* Analytic scoring: instantiate a spec's derived contract with the PCV
   distribution a Distiller replay harvested from the workload.

   The pricing uses the exact algebra the pipeline certifies — the
   symbolic per-packet worst case (Bolt.Pipeline.worst_case, the
   monomial-wise max over every feasible path) evaluated at each
   packet's observed PCV binding (per-PCV max over the packet's calls,
   0 for PCVs the packet never exercised — the Validate convention).
   Because every contract polynomial has non-negative coefficients, each
   per-packet figure is a sound upper bound on that packet's cost, so
   the predicted percentiles dominate the measured ones pointwise. *)

type sample = (Perf.Pcv.t * int) list array
(** Per-packet PCV observations, in stream order. *)

let harvest (entry : Nf.Registry.entry) stream =
  let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
  let t =
    Distiller.Run.run ~hw:(Hw.Model.null ()) ~dss entry.Nf.Registry.program
      stream
  in
  Array.init (Distiller.Run.count t) (Distiller.Run.observations t)

let binding_of ~universe observations : Perf.Pcv.binding =
  List.map
    (fun v ->
      let value =
        List.fold_left
          (fun acc (p, x) -> if Perf.Pcv.equal p v then max acc x else acc)
          0 observations
      in
      (v, value))
    universe

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

let predict_packet ~worst binding metric =
  Perf.Cost_vec.eval_exn binding worst metric

let columns ~worst (sample : sample) =
  let universe = Perf.Cost_vec.pcvs worst in
  let bindings = Array.map (binding_of ~universe) sample in
  let col metric =
    let c = Array.map (fun b -> predict_packet ~worst b metric) bindings in
    Array.sort compare c;
    c
  in
  ( col Perf.Metric.Instructions,
    col Perf.Metric.Memory_accesses,
    col Perf.Metric.Cycles )

let predict ~worst sample =
  let ic, ma, cycles = columns ~worst sample in
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
