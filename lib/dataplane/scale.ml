type level = {
  shards : int;
  contract : Perf.Scale.t;
  predicted_pps : float;
  measured_pps : float;
  parity_ok : bool;
  error_pct : float;
}

type result = {
  nf : string;
  packets : int;
  cores : int;
  baseline_pps : float;
  per_packet_cycles : int;
  dispatch_cycles : int;
  levels : level list;
}

let default_nfs = [ "firewall"; "nat"; "maglev" ]

let workload ~nf ~seed ~packets =
  let rng = Workload.Prng.create ~seed in
  match nf with
  | "maglev" ->
      (* liveness first: heartbeats from every backend (broadcast class),
         then client flows that hash across the shards *)
      let hbs =
        Workload.Gen.heartbeat_frames
          ~backend_ids:(List.init 16 Fun.id)
          ~port:Nf.Maglev.heartbeat_port
      in
      let clients =
        Workload.Gen.packets_of_flows
          (Workload.Gen.distinct_flows rng (max 1 (packets - List.length hbs)))
      in
      Workload.Stream.constant_rate ~in_port:1 ~start:1_000_000 ~gap:100 hbs
      @ Workload.Stream.constant_rate ~in_port:0 ~start:1_100_000 ~gap:100
          clients
  | _ ->
      (* firewall, nat, and any other flow-steered NF: distinct flows
         arriving on the internal side *)
      Workload.Stream.constant_rate ~in_port:0 ~start:1_000_000 ~gap:100
        (Workload.Gen.packets_of_flows
           (Workload.Gen.distinct_flows rng packets))

let contract_cycles (spec : Nf.Spec.t) =
  let entry = Nf.Registry.of_spec spec in
  let t =
    Bolt.Pipeline.analyze
      ~config:
        Bolt.Pipeline.Config.(
          default |> with_contracts entry.Nf.Registry.contracts)
      entry.Nf.Registry.program
  in
  let w = Bolt.Pipeline.worst_case t in
  (* the bench convention: every PCV bound to the same adversarial value *)
  let binding = List.map (fun p -> (p, 3)) (Perf.Cost_vec.pcvs w) in
  Perf.Cost_vec.eval_exn binding w Perf.Metric.Cycles

let dispatch_cycles () =
  Perf.Cost_vec.eval_exn [] Dispatch.cost_vec Perf.Metric.Cycles

let best_of ~reps f =
  let rec go i best = if i <= 0 then best else go (i - 1) (Float.min best (f ())) in
  go reps infinity

let run ?(levels = [ 1; 2; 4 ]) ?(packets = 4096) ?(reps = 3) ?(seed = 42) nf
    =
  let spec = Nf.Spec.of_name nf in
  let stream = workload ~nf ~seed ~packets in
  let n = Workload.Stream.length stream in
  let cores = Domain.recommended_domain_count () in
  let per_packet_cycles = contract_cycles spec in
  let d_cycles = dispatch_cycles () in
  let reference = Shard.replay (Shard.create (Plan.make ~shards:1 spec)) stream in
  let baseline_pps =
    float_of_int n
    /. best_of ~reps (fun () ->
           Shard.drain (Shard.create (Plan.make ~shards:1 spec)) stream)
  in
  let level shards =
    let plan = Plan.make ~shards spec in
    let contract =
      Perf.Scale.derive ~nf ~shards ~cores ~per_packet_cycles
        ~dispatch_cycles:(if shards = 1 then 0 else d_cycles)
        ~shard_loads:(Shard.load_histogram plan stream)
    in
    let serial = Shard.replay (Shard.create plan) stream in
    let parallel =
      Shard.with_engine plan (fun e -> Shard.replay ~parallel:true e stream)
    in
    let parity_ok =
      (* parallel ≡ serial at the same shard count is bit-identical for
         every NF; against the shards-1 reference the NAT's bytes may
         differ (disjoint port slices), outcomes may not *)
      Oracle.equivalence ~strict_bytes:true ~nf serial parallel = []
      && Oracle.equivalence ~strict_bytes:(nf <> "nat") ~nf reference serial
         = []
    in
    let measured_pps =
      (* at one shard the parallel drain is the serial drain (the
         dispatcher is bypassed), so the baseline measurement is reused
         rather than re-sampling the same code path *)
      if shards = 1 then baseline_pps
      else
        float_of_int n
        /. best_of ~reps (fun () ->
               Shard.with_engine plan (fun e ->
                   Shard.drain ~parallel:true e stream))
    in
    let predicted_pps = Perf.Scale.predicted_pps contract ~baseline_pps in
    {
      shards;
      contract;
      predicted_pps;
      measured_pps;
      parity_ok;
      error_pct = (predicted_pps -. measured_pps) /. measured_pps *. 100.;
    }
  in
  {
    nf;
    packets = n;
    cores;
    baseline_pps;
    per_packet_cycles;
    dispatch_cycles = d_cycles;
    levels = List.map level levels;
  }

let to_json r =
  let open Perf.Json in
  Obj
    [
      ("nf", String r.nf);
      ("provenance", Perf.Provenance.json ~packets:r.packets ());
      ("cores", Int r.cores);
      ("baseline_pps", Int (int_of_float r.baseline_pps));
      ("per_packet_cycles", Int r.per_packet_cycles);
      ("dispatch_cycles", Int r.dispatch_cycles);
      ( "levels",
        List
          (List.map
             (fun l ->
               Obj
                 [
                   ("shards", Int l.shards);
                   ("contract", Perf.Scale.to_json l.contract);
                   ("predicted_pps", Int (int_of_float l.predicted_pps));
                   ("measured_pps", Int (int_of_float l.measured_pps));
                   ("parity_ok", Bool l.parity_ok);
                   ("error_pct", Int (int_of_float l.error_pct));
                 ])
             r.levels) );
    ]

let pp ppf r =
  Fmt.pf ppf "@[<v>%s: %d packets, %d core(s), baseline %.0f pps@,%a@]" r.nf
    r.packets r.cores r.baseline_pps
    (Fmt.list ~sep:Fmt.cut (fun ppf l ->
         Fmt.pf ppf
           "  x%d  predicted %8.0f pps  measured %8.0f pps  err %+.1f%%  \
            skew %d%%  parity %b"
           l.shards l.predicted_pps l.measured_pps l.error_pct
           l.contract.Perf.Scale.skew_pct l.parity_ok))
    r.levels

(* ---- The scale suite: one driver, one verdict, for every front-end ---- *)

type suite = {
  cores : int;
  results : result list;
  affinity : Oracle.report list;
  failures : string list;
  misses : string list;
}

let error_bound_pct = 50.

(* Correctness first — parity per NF and level, then affinity — then,
   on a multicore host only, each NF's 2-shard speedup and prediction
   error.  On one core the contract itself predicts no speedup (the
   1/cores floor), so the performance gates would be vacuous there;
   beyond 2 shards the unmodelled cross-domain effects grow with the
   shard count, so the error bound is stated at 2. *)
let verdict ~cores results affinity =
  let msg = Printf.sprintf in
  let diverged r =
    List.filter_map
      (fun l ->
        if l.parity_ok then None
        else Some (msg "scale: %s diverged at %d shards" r.nf l.shards))
      r.levels
  in
  let missed r =
    match List.find_opt (fun l -> l.shards = 2) r.levels with
    | Some l when cores >= 2 ->
        List.filter_map Fun.id
          [
            (if l.measured_pps > r.baseline_pps then None
             else
               Some
                 (msg "scale: %s shows no speedup at 2 shards on a %d-core host"
                    r.nf cores));
            (if Float.abs l.error_pct <= error_bound_pct then None
             else
               Some
                 (msg
                    "scale: %s prediction off by %.0f%% at 2 shards (bound \
                     %.0f%%)"
                    r.nf l.error_pct error_bound_pct));
          ]
    | _ -> []
  in
  let affinity =
    if List.for_all Oracle.ok affinity then []
    else [ "scale: dispatcher affinity oracle found violations" ]
  in
  (List.concat_map diverged results @ affinity, List.concat_map missed results)

let run_suite ?(levels = [ 1; 2; 4 ]) ?packets ?reps ?seed nfs =
  let results = List.map (run ~levels ?packets ?reps ?seed) nfs in
  let shards = max 2 (List.fold_left max 1 levels) in
  let affinity =
    [ Oracle.conntrack_affinity ~shards (); Oracle.nat_affinity ~shards () ]
  in
  let cores = Domain.recommended_domain_count () in
  let failures, misses = verdict ~cores results affinity in
  { cores; results; affinity; failures; misses }

let suite_json s =
  let open Perf.Json in
  [
    ("artifact", String "scale");
    ("cores", Int s.cores);
    ("error_bound_pct_at_2_shards", Int (int_of_float error_bound_pct));
    ("nfs", List (List.map to_json s.results));
    ( "affinity",
      List
        (List.map
           (fun (r : Oracle.report) ->
             Obj
               [
                 ("nf", String r.Oracle.nf);
                 ("shards", Int r.Oracle.shards);
                 ("checked", Int r.Oracle.checked);
                 ("violations", Int (List.length r.Oracle.violations));
               ])
           s.affinity) );
  ]

let pp_suite ppf s =
  let note ppf cores =
    if cores < 2 then
      Fmt.pf ppf
        "@,@,  NOTE: single-core environment — the contract predicts no \
         speedup here@,  (1/cores floor); speedup and error-bound gates \
         require a multicore host."
  in
  Fmt.pf ppf "@[<v>%a@,@,%a%a@]" (Fmt.list ~sep:Fmt.cut pp) s.results
    (Fmt.list ~sep:Fmt.cut (fun ppf r -> Fmt.pf ppf "  @[<v>%a@]" Oracle.pp r))
    s.affinity note s.cores
