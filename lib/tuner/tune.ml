(* The contract-guided autotuner (the Kugelblitz move, on top of the
   paper's contracts): enumerate a deterministic grid of value-level NF
   specs, price every point analytically — the spec's derived contract
   instantiated with one harvested PCV distribution per backend — emit
   the Pareto front over (predicted p50 cycles, predicted p99 cycles,
   memory footprint), and confirm the front's winner by replaying the
   same workload on the specialized path, reporting predicted-vs-measured
   error.

   Scoring never times anything: per backend there is exactly one
   Distiller replay (PCV harvest, null model) and one certification
   pipeline run; every grid point is then priced by evaluating the
   symbolic worst case at the harvested per-packet bindings.  The
   harvest uses the backend's smallest-capacity point, whose geometry
   (densest buckets) yields the most conservative collision counts. *)

type point = {
  index : int;
  spec : Nf.Spec.t;
  backend : string;
  knobs : (string * string) list;
  footprint_bytes : int;
  predicted : Score.prediction;
  exposure_ic : int option;
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
  err_p50_ic_pct : int;
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
  points : point list;
  front : point list;
  winner : point;
  validation : validation;
}

let objectives p =
  {
    Pareto.p50 = p.predicted.Score.p50_cycles;
    p99 = p.predicted.Score.p99_cycles;
    mem = p.footprint_bytes;
  }

(* Overestimate percentage, the Harness convention. *)
let err_pct ~predicted ~measured =
  (predicted - measured) * 100 / max 1 measured

let sorted_column n f =
  let c = Array.init n f in
  Array.sort compare c;
  c

let validate ~worst entry stream =
  let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
  let hw = Hw.Model.realistic () in
  let t = Distiller.Run.run ~hw ~dss entry.Nf.Registry.program stream in
  let n = Distiller.Run.count t in
  let acc = Perf.Bound.acc (Perf.Bound.compile worst) in
  for i = 0 to n - 1 do
    Perf.Bound.clear acc;
    Perf.Bound.observe acc (Distiller.Run.observations t i);
    Perf.Bound.check acc ~ic:(Distiller.Run.ic t i) ~ma:(Distiller.Run.ma t i)
  done;
  let ic = sorted_column n (Distiller.Run.ic t) in
  let ma = sorted_column n (Distiller.Run.ma t) in
  let cycles = sorted_column n (Distiller.Run.cycles t) in
  (ic, ma, cycles, (Perf.Bound.report acc).Perf.Bound.violations = [])

let run ~nf ?backends ?capacities ?(packets = 512) ?(seed = 42) () =
  let backends =
    match backends with Some l -> l | None -> Space.backends ~nf
  in
  let capacities =
    match capacities with Some l -> l | None -> Space.default_capacities ~nf
  in
  let specs = Space.grid ~nf ~backends ~capacities () in
  let stream = Space.workload ~nf ~packets ~seed ~capacities in
  let min_cap = List.fold_left min (List.hd capacities) capacities in
  (* One harvest + one pipeline run per backend; both are keyed by the
     backend because program, contracts and the symbolic worst case are
     capacity-invariant within a family. *)
  let per_backend =
    List.map
      (fun b ->
        let spec = Space.point ~nf ~backend:b ~capacity:min_cap in
        let entry = Nf.Registry.of_spec spec in
        let sample = Score.harvest entry (Space.copy_stream stream) in
        let t = Score.analyze entry in
        (b, (sample, t, Bolt.Pipeline.worst_case t)))
      backends
  in
  let points =
    List.mapi
      (fun index spec ->
        let backend = Space.backend_of spec in
        let sample, t, worst = List.assoc backend per_backend in
        let entry = Nf.Registry.of_spec spec in
        {
          index;
          spec;
          backend;
          knobs = Nf.Spec.to_strings (Nf.Spec.knobs spec);
          footprint_bytes = Nf.Spec.footprint_bytes spec;
          predicted = Score.predict ~worst sample;
          exposure_ic = Score.exposure_ic t entry.Nf.Registry.classes;
          on_front = false;
        })
      specs
  in
  let front_set =
    Pareto.front (List.map (fun p -> (p.index, objectives p)) points)
  in
  let on_front i = List.mem_assoc i front_set in
  let points = List.map (fun p -> { p with on_front = on_front p.index }) points in
  let front = List.filter (fun p -> p.on_front) points in
  let winner =
    match
      List.sort
        (fun a b ->
          compare
            ( a.predicted.Score.p99_cycles,
              a.footprint_bytes,
              a.predicted.Score.p50_cycles,
              a.index )
            ( b.predicted.Score.p99_cycles,
              b.footprint_bytes,
              b.predicted.Score.p50_cycles,
              b.index ))
        front
    with
    | w :: _ -> w
    | [] -> assert false (* front of a non-empty grid is non-empty *)
  in
  let _, _, worst = List.assoc winner.backend per_backend in
  let entry = Nf.Registry.of_spec winner.spec in
  let ic, ma, cycles, sound =
    validate ~worst entry (Space.copy_stream stream)
  in
  let p = Score.percentile in
  let validation =
    {
      packets = Array.length ic;
      measured_p50_ic = p ic 50;
      measured_p99_ic = p ic 99;
      measured_p50_ma = p ma 50;
      measured_p99_ma = p ma 99;
      measured_p50_cycles = p cycles 50;
      measured_p99_cycles = p cycles 99;
      err_p50_ic_pct =
        err_pct ~predicted:winner.predicted.Score.p50_ic ~measured:(p ic 50);
      err_p99_ic_pct =
        err_pct ~predicted:winner.predicted.Score.p99_ic ~measured:(p ic 99);
      err_p50_cycles_pct =
        err_pct ~predicted:winner.predicted.Score.p50_cycles
          ~measured:(p cycles 50);
      err_p99_cycles_pct =
        err_pct ~predicted:winner.predicted.Score.p99_cycles
          ~measured:(p cycles 99);
      sound;
    }
  in
  { nf; seed; points; front; winner; validation }

(* ---- rendering ---- *)

let json_of_prediction (pr : Score.prediction) =
  Perf.Json.Obj
    [
      ("p50_ic", Perf.Json.Int pr.Score.p50_ic);
      ("p99_ic", Perf.Json.Int pr.Score.p99_ic);
      ("p50_ma", Perf.Json.Int pr.Score.p50_ma);
      ("p99_ma", Perf.Json.Int pr.Score.p99_ma);
      ("p50_cycles", Perf.Json.Int pr.Score.p50_cycles);
      ("p99_cycles", Perf.Json.Int pr.Score.p99_cycles);
    ]

let json_of_point p =
  Perf.Json.Obj
    [
      ("index", Perf.Json.Int p.index);
      ("backend", Perf.Json.String p.backend);
      ( "knobs",
        Perf.Json.Obj
          (List.map (fun (k, v) -> (k, Perf.Json.String v)) p.knobs) );
      ("footprint_bytes", Perf.Json.Int p.footprint_bytes);
      ("predicted", json_of_prediction p.predicted);
      ( "exposure_ic",
        match p.exposure_ic with
        | Some v -> Perf.Json.Int v
        | None -> Perf.Json.Null );
      ("on_front", Perf.Json.Bool p.on_front);
    ]

let to_json r =
  Perf.Json.Obj
    [
      ("nf", Perf.Json.String r.nf);
      ( "provenance",
        Perf.Provenance.json ~packets:r.validation.packets () );
      ("seed", Perf.Json.Int r.seed);
      ("grid", Perf.Json.List (List.map json_of_point r.points));
      ( "front",
        Perf.Json.List (List.map (fun p -> Perf.Json.Int p.index) r.front) );
      ("winner", Perf.Json.Int r.winner.index);
      ( "validation",
        Perf.Json.Obj
          [
            ("packets", Perf.Json.Int r.validation.packets);
            ("measured_p50_ic", Perf.Json.Int r.validation.measured_p50_ic);
            ("measured_p99_ic", Perf.Json.Int r.validation.measured_p99_ic);
            ("measured_p50_ma", Perf.Json.Int r.validation.measured_p50_ma);
            ("measured_p99_ma", Perf.Json.Int r.validation.measured_p99_ma);
            ( "measured_p50_cycles",
              Perf.Json.Int r.validation.measured_p50_cycles );
            ( "measured_p99_cycles",
              Perf.Json.Int r.validation.measured_p99_cycles );
            ("err_p50_ic_pct", Perf.Json.Int r.validation.err_p50_ic_pct);
            ("err_p99_ic_pct", Perf.Json.Int r.validation.err_p99_ic_pct);
            ( "err_p50_cycles_pct",
              Perf.Json.Int r.validation.err_p50_cycles_pct );
            ( "err_p99_cycles_pct",
              Perf.Json.Int r.validation.err_p99_cycles_pct );
            ("sound", Perf.Json.Bool r.validation.sound);
          ] );
    ]

let pp_point ppf p =
  Fmt.pf ppf "%s %c #%d  %-8s %-40s mem %8dB  pred cycles p50 %6d p99 %6d%a"
    (if p.on_front then "*" else " ")
    (if p.on_front then '|' else ' ')
    p.index p.backend
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ v) p.knobs))
    p.footprint_bytes p.predicted.Score.p50_cycles
    p.predicted.Score.p99_cycles
    (fun ppf -> function
      | Some e -> Fmt.pf ppf "  worst ic %d" e
      | None -> ())
    p.exposure_ic

let pp ppf r =
  Fmt.pf ppf "tune %s: %d grid points, %d on the Pareto front@."
    r.nf (List.length r.points) (List.length r.front);
  List.iter (fun p -> Fmt.pf ppf "%a@." pp_point p) r.points;
  let v = r.validation in
  Fmt.pf ppf "winner: #%d %s (%s)@." r.winner.index r.winner.backend
    (String.concat " " (List.map (fun (k, x) -> k ^ "=" ^ x) r.winner.knobs));
  Fmt.pf ppf
    "validated on %d packets (specialized replay, realistic model): sound=%b@."
    v.packets v.sound;
  Fmt.pf ppf
    "  ic     p50 pred %7d meas %7d (+%d%%)   p99 pred %7d meas %7d (+%d%%)@."
    r.winner.predicted.Score.p50_ic v.measured_p50_ic v.err_p50_ic_pct
    r.winner.predicted.Score.p99_ic v.measured_p99_ic v.err_p99_ic_pct;
  Fmt.pf ppf
    "  cycles p50 pred %7d meas %7d (+%d%%)   p99 pred %7d meas %7d (+%d%%)@."
    r.winner.predicted.Score.p50_cycles v.measured_p50_cycles
    v.err_p50_cycles_pct r.winner.predicted.Score.p99_cycles
    v.measured_p99_cycles v.err_p99_cycles_pct
