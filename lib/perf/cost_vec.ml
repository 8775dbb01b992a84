type t = { ic : Perf_expr.t; ma : Perf_expr.t; cycles : Perf_expr.t }

let make ~ic ~ma ~cycles = { ic; ma; cycles }

let zero =
  { ic = Perf_expr.zero; ma = Perf_expr.zero; cycles = Perf_expr.zero }

let of_consts ~ic ~ma ~cycles =
  { ic = Perf_expr.const ic; ma = Perf_expr.const ma;
    cycles = Perf_expr.const cycles }

let get t = function
  | Metric.Instructions -> t.ic
  | Metric.Memory_accesses -> t.ma
  | Metric.Cycles -> t.cycles

let map2 f a b =
  { ic = f a.ic b.ic; ma = f a.ma b.ma; cycles = f a.cycles b.cycles }

let add = map2 Perf_expr.add
let sum = List.fold_left add zero

let scale k t =
  { ic = Perf_expr.scale k t.ic; ma = Perf_expr.scale k t.ma;
    cycles = Perf_expr.scale k t.cycles }

let max_upper = map2 Perf_expr.max_upper
let max_upper_list = List.fold_left max_upper zero
let eval binding t metric = Perf_expr.eval binding (get t metric)
let eval_exn binding t metric = Perf_expr.eval_exn binding (get t metric)

let pcvs t =
  Perf_expr.pcvs t.ic @ Perf_expr.pcvs t.ma @ Perf_expr.pcvs t.cycles
  |> List.sort_uniq Pcv.compare

let equal a b =
  Perf_expr.equal a.ic b.ic && Perf_expr.equal a.ma b.ma
  && Perf_expr.equal a.cycles b.cycles

let lines t =
  let line label e =
    let buf = Buffer.create 64 in
    Buffer.add_string buf label;
    Perf_expr.add_to_buffer buf e;
    Buffer.contents buf
  in
  [ line "IC:     " t.ic; line "MA:     " t.ma; line "cycles: " t.cycles ]

let pp ppf t = Fmt.(vbox (list ~sep:cut string)) ppf (lines t)
