(* Each metric's polynomial compiled over PCV slots: monomial after
   monomial, its coefficient, its variable count [n], then [n] (slot,
   exponent) pairs.  Ints wrap, so the sum and products come out as
   [Perf_expr]'s in any order. *)
type t = { slots : Pcv.t array; ic : int array; ma : int array; cycles : int array }

(* [pcv]'s index in [slots] from [i] on, or -1. *)
let rec slot_of slots pcv i =
  if i = Array.length slots then -1
  else if Pcv.equal slots.(i) pcv then i
  else slot_of slots pcv (i + 1)

let compile (cv : Cost_vec.t) =
  let slots =
    Pcv.[ expired; collisions; traversals; occupancy; scan; ip_options ]
    @ Cost_vec.pcvs cv
    |> List.sort_uniq Pcv.compare |> Array.of_list
  in
  let code poly =
    Perf_expr.terms poly
    |> List.concat_map (fun (vars, coeff) ->
           coeff :: List.length vars
           :: List.concat_map (fun (v, e) -> [ slot_of slots v 0; e ]) vars)
    |> Array.of_list
  in
  { slots; ic = code cv.ic; ma = code cv.ma; cycles = code cv.cycles }

let run (code : int array) (x : int array) =
  let acc = ref 0 and pc = ref 0 in
  while !pc < Array.length code do
    let n = code.(!pc + 1) in
    let v = ref code.(!pc) in
    for k = 0 to n - 1 do
      let xk = x.(code.(!pc + 2 + (2 * k))) in
      for _ = 1 to code.(!pc + 3 + (2 * k)) do
        v := !v * xk
      done
    done;
    acc := !acc + !v;
    pc := !pc + 2 + (2 * n)
  done;
  !acc

type violation = {
  packet_index : int;
  metric : Metric.t;
  bound : int;
  measured : int;
  binding : Pcv.binding;
}

type report = {
  packets : int;
  violations : violation list;
  worst_headroom_pct : float;
}

(* All-float, so stored flat: updating it boxes nothing. *)
type headroom = { mutable pct : float }

type acc = {
  bound : t;
  x : int array;  (** the current packet's binding, by slot *)
  mutable checked : int;
  mutable violations_rev : violation list;
  headroom : headroom;
}

let acc bound =
  let x = Array.make (Array.length bound.slots) 0 in
  { bound; x; checked = 0; violations_rev = []; headroom = { pct = 100. } }

let clear a = Array.fill a.x 0 (Array.length a.x) 0

let rec observe a = function
  | [] -> ()
  | (p, v) :: rest ->
      let i = slot_of a.bound.slots p 0 in
      if i >= 0 && v > a.x.(i) then a.x.(i) <- v;
      observe a rest

let eval a = function
  | Metric.Instructions -> run a.bound.ic a.x
  | Metric.Memory_accesses -> run a.bound.ma a.x
  | Metric.Cycles -> run a.bound.cycles a.x

let check_metric a metric measured =
  let bound = eval a metric in
  if bound < measured then
    let binding =
      List.mapi (fun i p -> (p, a.x.(i))) (Array.to_list a.bound.slots)
    in
    a.violations_rev <-
      { packet_index = a.checked; metric; bound; measured; binding }
      :: a.violations_rev
  else if bound > 0 then
    let pct = 100. *. float_of_int (bound - measured) /. float_of_int bound in
    if pct < a.headroom.pct then a.headroom.pct <- pct

let check a ~ic ~ma =
  check_metric a Metric.Instructions ic;
  check_metric a Metric.Memory_accesses ma;
  a.checked <- a.checked + 1

let report a =
  { packets = a.checked; violations = List.rev a.violations_rev;
    worst_headroom_pct = a.headroom.pct }

let pp_report ~subject ppf r =
  if r.violations = [] then
    Fmt.pf ppf "OK: %d packets within the %s (tightest headroom: %.1f%%)@."
      r.packets subject r.worst_headroom_pct
  else begin
    Fmt.pf ppf "%s VIOLATED on %d of %d packets:@."
      (String.uppercase_ascii subject)
      (List.length r.violations) r.packets;
    List.iter
      (fun v ->
        Fmt.pf ppf "  packet %d: %a bound %d < measured %d at %a@."
          v.packet_index Metric.pp v.metric v.bound v.measured
          Pcv.pp_binding v.binding)
      r.violations
  end
