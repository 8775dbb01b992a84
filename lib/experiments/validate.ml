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

let run ~worst ~dss program stream =
  let r = Distiller.Run.run ~hw:(Hw.Model.null ()) ~dss program stream in
  let acc = Perf.Bound.acc (Perf.Bound.compile worst) in
  for i = 0 to Distiller.Run.count r - 1 do
    Perf.Bound.clear acc;
    Perf.Bound.observe acc (Distiller.Run.observations r i);
    Perf.Bound.check acc ~ic:(Distiller.Run.ic r i) ~ma:(Distiller.Run.ma r i)
  done;
  Perf.Bound.report acc

let pp = Perf.Bound.pp_report ~subject:"contract"
