(* Regenerates every table and figure of the paper's evaluation (§5).

   Usage:
     dune exec bench/main.exe                 — everything
     dune exec bench/main.exe -- figure1      — one artifact
     dune exec bench/main.exe -- --quick      — smaller workloads
     dune exec bench/main.exe -- --csv DIR    — also dump figure series as CSV
     dune exec bench/main.exe -- --jobs N     — domain-pool size (also BOLT_JOBS)
     dune exec bench/main.exe -- --trace FILE — write a Chrome trace of the run
     dune exec bench/main.exe -- speedup --json BENCH_pipeline.json
                                              — parallel-pipeline speedup +
                                                solver-cache hit rates
     dune exec bench/main.exe -- throughput --json BENCH_throughput.json
                                              — interpreted vs specialized
                                                packets/sec
     dune exec bench/main.exe -- soak --json BENCH_soak.json
                                              — attack-class soak: specialized
                                                pps + contract soundness
     dune exec bench/main.exe -- soak --shards 4
                                              — also replay the soak classes
                                                through the sharded dataplane
     dune exec bench/main.exe -- scale --json BENCH_scale.json
                                              — sharded dataplane: scalability
                                                contract vs measured pps at
                                                1/2/4 shards + affinity oracles
     dune exec bench/main.exe -- topo --json BENCH_topo.json
                                              — network-wide contracts: joint
                                                topology bound vs naive
                                                addition + replay soundness
     dune exec bench/main.exe -- bechamel     — micro-benchmarks only *)

let quick = ref false
let csv_dir : string option ref = ref None
let jobs : int option ref = ref None
let json_path : string option ref = ref None
let trace_path : string option ref = ref None
let soak_shards = ref 1

let section title = Fmt.pr "@.==== %s ====@.@." title

(* Optionally dump a figure's series as CSV for plotting. *)
let write_csv name header rows =
  match !csv_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (header ^ "\n");
          List.iter (fun row -> output_string oc (row ^ "\n")) rows);
      Fmt.pr "  [wrote %s]@." path

(* Every tracked BENCH_*.json carries the environment provenance block,
   so artifact numbers are self-describing (1-core CI container vs a
   real multicore host). *)
let write_json ?packets fields =
  match !json_path with
  | None -> ()
  | Some path ->
      let j =
        Perf.Json.Obj
          (fields @ [ ("provenance", Perf.Provenance.json ?packets ()) ])
      in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Perf.Json.to_string ~indent:true j);
          output_string oc "\n");
      Fmt.pr "  [wrote %s]@." path

(* ---- Artifacts -------------------------------------------------------- *)

let table1 () =
  section "Table 1 — stylised contract for the example LPM router";
  Experiments.Exhibits.table1 Fmt.stdout

let table2 () =
  section "Table 2 — performance contract for lpmGet";
  Experiments.Exhibits.table2 Fmt.stdout

let figure1_table3 () =
  section
    "Figure 1 + Table 3 — predicted vs measured IC, MA and cycles for 14 \
     NF/class scenarios";
  let params =
    if !quick then Experiments.Scenarios.quick_params
    else Experiments.Scenarios.default_params
  in
  let rows = Experiments.Scenarios.figure1_table3 ~params ?jobs:!jobs () in
  Experiments.Harness.pp_rows
    ~title:
      (Printf.sprintf
         "(pathological tables: %d entries; typical scenarios: %d flows)"
         params.Experiments.Scenarios.patho_capacity
         params.Experiments.Scenarios.flows)
    Fmt.stdout rows;
  let max_ic, max_ma =
    List.fold_left
      (fun (ic, ma) (r : Experiments.Harness.row) ->
        ( Float.max ic
            (Experiments.Harness.over_estimate_pct
               ~predicted:r.Experiments.Harness.predicted.Experiments.Harness.ic
               ~measured:r.Experiments.Harness.measured.Experiments.Harness.ic),
          Float.max ma
            (Experiments.Harness.over_estimate_pct
               ~predicted:r.Experiments.Harness.predicted.Experiments.Harness.ma
               ~measured:r.Experiments.Harness.measured.Experiments.Harness.ma) ))
      (0., 0.) rows
  in
  Fmt.pr "@.maximum over-estimation: IC %.1f%%, MA %.1f%% (paper: 7.5%% / \
          7.6%%)@."
    max_ic max_ma

let p123 () =
  section "P1/P2/P3 — hardware-model validation microbenchmarks (§5.1)";
  Experiments.Microbench.print Fmt.stdout
    (Experiments.Microbench.run ~nodes:(if !quick then 1024 else 8192) ())

let table4 () =
  section "Table 4 — bridge contract (rehash defence cliff)";
  Experiments.Exhibits.table4 Fmt.stdout

let figure2 () =
  section
    "Figure 2 — CCDF of bucket traversals vs predicted IC (threshold \
     choice)";
  let points =
    Experiments.Attack.figure2 ~packets:(if !quick then 4_000 else 20_000) ()
  in
  Experiments.Attack.print Fmt.stdout points;
  write_csv "figure2" "traversals,ccdf,predicted_ic"
    (List.map
       (fun (p : Experiments.Attack.point) ->
         Printf.sprintf "%d,%f,%d" p.Experiments.Attack.traversals
           p.Experiments.Attack.ccdf p.Experiments.Attack.predicted_ic)
       points)

let table5 () =
  section "Table 5 — firewall, static router and chain contracts";
  Experiments.Exhibits.table5 Fmt.stdout

let figure3 () =
  section "Figure 3 — composite firewall+router vs naive addition";
  Experiments.Exhibits.figure3
    ~packets:(if !quick then 128 else 512)
    Fmt.stdout

let table6 () =
  section "Table 6 — VigNAT performance contract";
  Experiments.Exhibits.table6 Fmt.stdout

let tables7_8_figure4 () =
  section
    "Tables 7/8 + Figure 4 — the VigNAT expiry-batching bug and its fix";
  let packets = if !quick then 6_000 else 24_000 in
  let t7, t8 = Experiments.Vignat.tables7_8 ~packets () in
  Experiments.Vignat.print_report
    ~label:"Table 7 — second granularity (original)" Fmt.stdout t7;
  Experiments.Vignat.print_report
    ~label:"Table 8 — millisecond granularity (fixed)" Fmt.stdout t8;
  let tail r k =
    List.filter (fun (_, p) -> p > 0.) r.Experiments.Vignat.latency_ccdf
    |> fun l ->
    let n = List.length l in
    List.filteri (fun i _ -> i >= n - k) l
  in
  Fmt.pr "@.Figure 4 — latency CCDF tails (cycles, last 5 points with \
          mass):@.";
  Fmt.pr "  second granularity:      %a@."
    Fmt.(list ~sep:(any "  ") (pair ~sep:(any ":") int float))
    (tail t7 5);
  Fmt.pr "  millisecond granularity: %a@."
    Fmt.(list ~sep:(any "  ") (pair ~sep:(any ":") int float))
    (tail t8 5);
  let dump name r =
    write_csv name "latency_cycles,ccdf"
      (List.map
         (fun (v, p) -> Printf.sprintf "%d,%f" v p)
         r.Experiments.Vignat.latency_ccdf)
  in
  dump "figure4_second_granularity" t7;
  dump "figure4_millisecond_granularity" t8

let figures5_6_7 () =
  section
    "Figures 5/6/7 — allocator A (dll) vs allocator B (array) under churn";
  let packets = if !quick then 6_000 else 20_000 in
  let low, high = Experiments.Allocators.figure5_6_7 ~packets () in
  Experiments.Allocators.print Fmt.stdout low;
  Experiments.Allocators.print Fmt.stdout high;
  let dump name (r : Experiments.Allocators.result) =
    let line cdf = List.map (fun (v, p) -> Printf.sprintf "%d,%f" v p) cdf in
    write_csv (name ^ "_alloc_a") "latency_cycles,cdf"
      (line r.Experiments.Allocators.cdf_a);
    write_csv (name ^ "_alloc_b") "latency_cycles,cdf"
      (line r.Experiments.Allocators.cdf_b)
  in
  dump "figure6_low_churn" low;
  dump "figure7_high_churn" high

(* ---- Parallel-pipeline speedup ----------------------------------------- *)

(* Wall-clock for the full Figure 1 scenario pipeline (contract
   derivation + 14 measured runs) at several domain-pool sizes, plus the
   solver cache's hit rate — the trajectory artifact future scaling PRs
   compare against (BENCH_pipeline.json). *)
let speedup () =
  section "Speedup — domain-pool scaling of the Figure 1 pipeline";
  let params =
    if !quick then Experiments.Scenarios.quick_params
    else Experiments.Scenarios.default_params
  in
  let cores = Domain.recommended_domain_count () in
  let top =
    match !jobs with Some n -> n | None -> max 4 (Exec.Pool.default_jobs ())
  in
  let levels = List.sort_uniq compare [ 1; top ] in
  let run_level j =
    Solver.Cache.reset ();
    let t0 = Unix.gettimeofday () in
    let rows = Experiments.Scenarios.figure1_table3 ~params ~jobs:j () in
    let wall = Unix.gettimeofday () -. t0 in
    let stats = Solver.Cache.stats () in
    (j, wall, stats, rows)
  in
  let results = List.map run_level levels in
  let _, wall1, _, rows1 = List.hd results in
  List.iter
    (fun (j, wall, stats, rows) ->
      if rows <> rows1 then
        failwith
          (Printf.sprintf
             "speedup: jobs:%d rows differ from jobs:1 — determinism bug" j);
      Fmt.pr
        "  jobs:%-3d  wall %6.2fs  speedup x%4.2f  solver cache: %d hits / \
         %d misses (%.1f%% hit rate)@."
        j wall (wall1 /. wall) stats.Solver.Cache.hits
        stats.Solver.Cache.misses
        (100. *. Solver.Cache.hit_rate stats))
    results;
  Fmt.pr "  (%d hardware thread%s available to this process)@." cores
    (if cores = 1 then "" else "s");
  if cores = 1 then
    Fmt.pr
      "  NOTE: single-core environment — domain fan-out cannot improve \
       wall-clock here;@.  the determinism cross-check above still \
       exercises the parallel path.@.";
  let ms w = int_of_float (w *. 1000.) in
  write_json
    [
      ("artifact", Perf.Json.String "pipeline_speedup");
      ("quick", Perf.Json.Bool !quick);
      ("cores", Perf.Json.Int cores);
      ( "levels",
        Perf.Json.List
          (List.map
             (fun (j, wall, stats, _) ->
               Perf.Json.Obj
                 [
                   ("jobs", Perf.Json.Int j);
                   ("wall_ms", Perf.Json.Int (ms wall));
                   ("cache_hits", Perf.Json.Int stats.Solver.Cache.hits);
                   ("cache_misses", Perf.Json.Int stats.Solver.Cache.misses);
                 ])
             results) );
    ]

(* ---- Extensions and ablations ------------------------------------------ *)

let conntrack () =
  section
    "Extension — connection-tracking firewall, predicted vs measured";
  let params =
    if !quick then Experiments.Scenarios.quick_params
    else Experiments.Scenarios.default_params
  in
  Experiments.Harness.pp_rows ~title:"CT1-CT5 (same harness as Figure 1)"
    Fmt.stdout
    (Experiments.Scenarios.conntrack_rows ~params ?jobs:!jobs ())

let floors () =
  section "Extension — guaranteed throughput floors (paper §6 future work)";
  Experiments.Extensions.throughput_table Fmt.stdout

(* ---- Wall-clock throughput: interpreter vs specialized ---------------- *)

(* The same established-flow stream replayed through [Exec.Interp] and
   [Exec.Specialize] (compiled once against the stream's configuration,
   outside the timed region), reporting packets/sec and ns/packet for
   each.  Null hardware model and a fresh data-structure environment
   per timed run, so the numbers isolate executor overhead over
   identical metered semantics.  Every stream entry carries its own packet copy — several
   NFs rewrite headers in place (TTL decrement, NAT translation), and a
   shared buffer would feed each replica its predecessor's output
   instead of fresh traffic.  Before anything is timed, the specialized
   engine is replayed against the interpreter on the head of the stream
   and must agree exactly (outcomes, costs, observations, packet
   bytes) — a standing guard against specialization drift in the very
   binary producing the numbers; the deep equivalence campaign lives in
   the test suite and fuzz oracle.  Best of several interleaved runs per
   engine; the stream is rebuilt per run because execution mutates
   packet buffers.  The specialized row also reports steady-state
   minor-heap allocation, which Exec.Specialize pins at exactly 0
   words/packet. *)
let exec_throughput () =
  section "Throughput — interpreted vs config-specialized";
  let packets = if !quick then 4_000 else 40_000 in
  let nf_names = [ "firewall"; "static_router"; "nat"; "bridge" ] in
  let stream_of ?(packets = packets) rng =
    let flows = Workload.Gen.distinct_flows rng 64 in
    let base = Workload.Gen.packets_of_flows flows in
    let rec replicate acc n =
      if n <= 0 then acc
      else
        replicate
          (List.map (fun p -> Net.Packet.copy p) base @ acc)
          (n - List.length base)
    in
    Workload.Stream.constant_rate ~in_port:0 ~start:1_000_000 ~gap:100
      (replicate [] packets)
  in
  let parity_check (entry : Nf.Registry.entry) =
    let n = 256 in
    let replay exec =
      List.map
        (fun (e : Workload.Stream.entry) ->
          let r =
            exec ~in_port:e.Workload.Stream.in_port ~now:e.Workload.Stream.now
              e.Workload.Stream.packet
          in
          (r, Net.Packet.to_bytes e.Workload.Stream.packet))
        (stream_of ~packets:n (Workload.Prng.create ~seed:42))
    in
    let interp =
      let meter = Exec.Meter.create (Hw.Model.null ()) in
      let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
      replay (fun ~in_port ~now packet ->
          Exec.Meter.reset_observations meter;
          let r =
            Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss) ~in_port
              ~now entry.Nf.Registry.program packet
          in
          (r, Exec.Meter.observations meter))
    in
    let spec =
      let meter = Exec.Meter.create (Hw.Model.null ()) in
      let sp, _ = Nf.Registry.specialize entry ~meter in
      replay (fun ~in_port ~now packet ->
          Exec.Meter.reset_observations meter;
          let r = Exec.Specialize.run sp ~in_port ~now packet in
          (r, Exec.Meter.observations meter))
    in
    if interp <> spec then
      failwith
        (entry.Nf.Registry.name
       ^ ": specialized execution diverged from the interpreter")
  in
  let time_run entry engine =
    let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
    let mode = Exec.Interp.Production dss in
    let meter = Exec.Meter.create (Hw.Model.null ()) in
    let program = entry.Nf.Registry.program in
    let stream = stream_of (Workload.Prng.create ~seed:42) in
    (* engine dispatch happens once, outside the timed loop *)
    let process : in_port:int -> now:int -> Net.Packet.t -> unit =
      match engine with
      | `Interp ->
          fun ~in_port ~now packet ->
            ignore (Exec.Interp.run ~meter ~mode ~in_port ~now program packet)
      | `Specialized ->
          let sp, _ = Nf.Registry.specialize entry ~meter in
          fun ~in_port ~now packet ->
            ignore (Exec.Specialize.exec sp ~in_port ~now packet : int)
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (e : Workload.Stream.entry) ->
        Exec.Meter.reset_observations meter;
        process ~in_port:e.Workload.Stream.in_port ~now:e.Workload.Stream.now
          e.Workload.Stream.packet)
      stream;
    Unix.gettimeofday () -. t0
  in
  (* steady-state minor-heap words per packet on the specialized path,
     measured after a warm-up pass (tables populated, meter observation
     arrays grown); the two trailing [Gc.minor_words] reads cancel the
     cost of the measurement itself *)
  let alloc_per_packet entry =
    let meter = Exec.Meter.create (Hw.Model.null ()) in
    let sp, _ = Nf.Registry.specialize entry ~meter in
    let n = 2048 in
    let stream =
      Array.of_list
        (stream_of ~packets:(2 * n) (Workload.Prng.create ~seed:42))
    in
    let run lo hi =
      for i = lo to hi - 1 do
        let e = stream.(i) in
        Exec.Meter.reset_observations meter;
        ignore
          (Exec.Specialize.exec sp ~in_port:e.Workload.Stream.in_port
             ~now:e.Workload.Stream.now e.Workload.Stream.packet
            : int)
      done
    in
    run 0 n;
    let w0 = Gc.minor_words () in
    run n (2 * n);
    let w1 = Gc.minor_words () in
    let w2 = Gc.minor_words () in
    (w1 -. w0 -. (w2 -. w1)) /. float_of_int n
  in
  (* interleave the two engines and keep each one's best wall-clock,
     so a slow spell on a shared machine penalizes both sides alike *)
  let measure entry =
    let reps = if !quick then 3 else 5 in
    let rec go i (bi, bs) =
      if i = 0 then (bi, bs)
      else
        let wi = time_run entry `Interp in
        let ws = time_run entry `Specialized in
        go (i - 1) (Float.min bi wi, Float.min bs ws)
    in
    go reps (infinity, infinity)
  in
  let rows =
    List.map
      (fun name ->
        let entry = Nf.Registry.find name in
        parity_check entry;
        let wi, ws = measure entry in
        let words = alloc_per_packet entry in
        let pps w = float_of_int packets /. w in
        Fmt.pr
          "  %-14s interp %8.0f pps   specialized %9.0f pps (x%.2f)   \
           alloc %.2f w/pkt@."
          name (pps wi) (pps ws) (wi /. ws) words;
        (name, wi, ws, words))
      nf_names
  in
  write_json ~packets
    [
      ("artifact", Perf.Json.String "exec_throughput");
      ("quick", Perf.Json.Bool !quick);
      ("packets", Perf.Json.Int packets);
      ( "nfs",
        Perf.Json.List
          (List.map
             (fun (name, wi, ws, words) ->
               let pps w = int_of_float (float_of_int packets /. w) in
               let ns w = int_of_float (w *. 1e9 /. float_of_int packets) in
               Perf.Json.Obj
                 [
                   ("nf", Perf.Json.String name);
                   ("interp_pps", Perf.Json.Int (pps wi));
                   ("interp_ns_per_packet", Perf.Json.Int (ns wi));
                   ("specialized_pps", Perf.Json.Int (pps ws));
                   ("specialized_ns_per_packet", Perf.Json.Int (ns ws));
                   ( "specialized_speedup_pct",
                     Perf.Json.Int (int_of_float (100. *. wi /. ws)) );
                   ( "alloc_minor_words_per_packet",
                     Perf.Json.Int (int_of_float (Float.round words)) );
                 ])
             rows) );
    ];
  let best =
    List.fold_left
      (fun acc (_, wi, ws, _) -> Float.max acc (wi /. ws))
      0. rows
  in
  Fmt.pr "@.  best speedup x%.2f (specialize once, replay millions)@." best

(* ---- Soak: production-shaped attack classes on the specialized path --- *)

(* Each attack class replays a large production-shaped stream (Zipf
   popularity, heavy-tailed bursts, million-flow churn, a collision
   flood aimed at one bucket, a prefix flood aimed at one tbl8 slot)
   through the config-specialized engine and reports two things per
   class: wall-clock pps (best of several runs, fresh state per run) and
   the contract-soundness verdict — a slice of the same stream replayed
   under the conservative meter with every packet checked against the
   analysed worst case at its own PCVs ([Experiments.Validate]).  The
   point of the pairing: an attack class may degrade throughput (the
   collision flood demonstrably does, vs uniform) but must never escape
   the contract. *)
let soak () =
  section "Soak — attack-class throughput + contract soundness";
  let packets = if !quick then 10_000 else 100_000 in
  let churn_flows = if !quick then 50_000 else 1_048_576 in
  let flood_flows = if !quick then 512 else 2_048 in
  let sound_packets = if !quick then 2_000 else 20_000 in
  let universe = 65_536 in
  (* a small NAT, so floods reach full chains and churn cycles the table:
     1024 entries, timeout = 1024 packets' worth of stream time *)
  let nat_config =
    {
      Nf.Nat.default_config with
      capacity = 1024;
      buckets = 1024;
      timeout = 102_400;
      granularity = 100;
      port_lo = 1024;
      port_hi = 3071;
    }
  in
  let nat_spec = Nf.Spec.Nat nat_config in
  let nat_entry = Nf.Registry.of_spec nat_spec in
  (* an LPM FIB with one >24-bit route, so exactly one /24 slot pays the
     second tbl8 access — the slot the prefix flood aims at *)
  let long_slot = Net.Ipv4.addr_of_parts 93 184 216 0 in
  let lpm_routes = (long_slot, 28, 2) :: Nf.Spec.default_routes in
  let lpm_spec = Nf.Spec.with_routes (Nf.Spec.of_name "lpm_router") lpm_routes in
  let lpm_entry = Nf.Registry.of_spec lpm_spec in
  let base_packets name =
    let rng = Workload.Prng.create ~seed:2025 in
    match name with
    | "uniform" ->
        List.init packets (fun _ ->
            Workload.Soak.packet_of_index (Workload.Prng.below rng universe))
    | "zipf" ->
        let z = Workload.Soak.zipf ~n:universe ~theta:0.99 in
        Workload.Soak.zipf_packets rng z packets
    | "heavy_tail" ->
        let z = Workload.Soak.zipf ~n:universe ~theta:0.99 in
        Workload.Soak.heavy_tail_packets rng z ~alpha:1.3 ~max_burst:256
          packets
    | "churn" -> Workload.Soak.churn_packets ~offset:0 churn_flows
    | "collision_flood" ->
        (* every flow chains into bucket 0 of the NAT's geometry; cycle
           [flood_flows] distinct flows so the chain reaches capacity *)
        let _, scratch =
          Nf.Nat.setup ~config:nat_config (Dslib.Layout.allocator ())
        in
        let flows =
          Array.of_list
            (Workload.Soak.nat_collision_flows scratch rng ~bucket:0
               flood_flows)
        in
        List.init packets (fun i ->
            Net.Build.udp_of_flow flows.(i mod flood_flows))
    | "lpm_prefix" ->
        let _, lpm =
          Nf.Router.setup `Dir24_8 (Dslib.Layout.allocator ())
            ~routes:lpm_routes
        in
        let scratch =
          match lpm.Dslib.Backends.Lpm.repr with
          | Dslib.Backends.Lpm.Dir24_8 t -> t
          | Dslib.Backends.Lpm.Trie _ -> assert false
        in
        Workload.Soak.lpm_attack_packets rng scratch ~slot:long_slot packets
    | _ -> assert false
  in
  let classes =
    [
      ("uniform", nat_entry); ("zipf", nat_entry); ("heavy_tail", nat_entry);
      ("churn", nat_entry); ("collision_flood", nat_entry);
      ("lpm_prefix", lpm_entry);
    ]
  in
  let worst_of =
    (* one analysis per distinct entry, shared across classes *)
    let cache = Hashtbl.create 4 in
    fun (entry : Nf.Registry.entry) ->
      match Hashtbl.find_opt cache entry.Nf.Registry.name with
      | Some w -> w
      | None ->
          let t =
            Bolt.Pipeline.analyze
              ~config:
                Bolt.Pipeline.Config.(
                  default |> with_contracts entry.Nf.Registry.contracts)
              entry.Nf.Registry.program
          in
          let w = Bolt.Pipeline.worst_case t in
          Hashtbl.add cache entry.Nf.Registry.name w;
          w
  in
  let stream_of base n =
    let rec take acc k = function
      | p :: rest when k > 0 -> take (Net.Packet.copy p :: acc) (k - 1) rest
      | _ -> List.rev acc
    in
    Workload.Stream.constant_rate ~in_port:0 ~start:1_000_000 ~gap:100
      (take [] n base)
  in
  let parity_check (entry : Nf.Registry.entry) base =
    (* specialized vs interpreter on the stream head before timing it *)
    let replay exec =
      List.map
        (fun (e : Workload.Stream.entry) ->
          let r =
            exec ~in_port:e.Workload.Stream.in_port ~now:e.Workload.Stream.now
              e.Workload.Stream.packet
          in
          (r, Net.Packet.to_bytes e.Workload.Stream.packet))
        (stream_of base 256)
    in
    let interp =
      let meter = Exec.Meter.create (Hw.Model.null ()) in
      let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
      replay (fun ~in_port ~now packet ->
          Exec.Meter.reset_observations meter;
          let r =
            Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss) ~in_port
              ~now entry.Nf.Registry.program packet
          in
          (r, Exec.Meter.observations meter))
    in
    let spec =
      let meter = Exec.Meter.create (Hw.Model.null ()) in
      let sp, _ = Nf.Registry.specialize entry ~meter in
      replay (fun ~in_port ~now packet ->
          Exec.Meter.reset_observations meter;
          let r = Exec.Specialize.run sp ~in_port ~now packet in
          (r, Exec.Meter.observations meter))
    in
    if interp <> spec then
      failwith
        (entry.Nf.Registry.name
       ^ ": specialized execution diverged from the interpreter")
  in
  let time_once (entry : Nf.Registry.entry) base n =
    let meter = Exec.Meter.create (Hw.Model.null ()) in
    let sp, _ = Nf.Registry.specialize entry ~meter in
    let stream = stream_of base n in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun (e : Workload.Stream.entry) ->
        Exec.Meter.reset_observations meter;
        ignore
          (Exec.Specialize.exec sp ~in_port:e.Workload.Stream.in_port
             ~now:e.Workload.Stream.now e.Workload.Stream.packet
            : int))
      stream;
    Unix.gettimeofday () -. t0
  in
  let rows =
    List.map
      (fun (name, (entry : Nf.Registry.entry)) ->
        let base = base_packets name in
        let n = List.length base in
        parity_check entry base;
        let reps = if !quick then 2 else 3 in
        let w =
          let rec go i best =
            if i = 0 then best
            else go (i - 1) (Float.min best (time_once entry base n))
          in
          go reps infinity
        in
        let report =
          Experiments.Validate.run ~worst:(worst_of entry)
            ~dss:(entry.Nf.Registry.setup (Dslib.Layout.allocator ()))
            entry.Nf.Registry.program
            (stream_of base (min n sound_packets))
        in
        let sound = report.Experiments.Validate.violations = [] in
        let pps = float_of_int n /. w in
        Fmt.pr "  %-16s %-10s %9.0f pps   sound %b (headroom %.1f%% over %d pkts)@."
          name entry.Nf.Registry.name pps sound
          report.Experiments.Validate.worst_headroom_pct
          report.Experiments.Validate.packets;
        (name, entry.Nf.Registry.name, n, pps, sound, report))
      classes
  in
  let pps_of cls =
    List.filter_map
      (fun (name, _, _, pps, _, _) -> if name = cls then Some pps else None)
      rows
    |> List.hd
  in
  let degradation = pps_of "uniform" /. pps_of "collision_flood" in
  Fmt.pr "@.  collision flood runs x%.1f slower than uniform — and stays \
          inside the contract@."
    degradation;
  (* --shards N: replay the same attack classes through the sharded
     dataplane.  The dispatcher hash is independent of the NAT's table
     hash, so a collision flood that chains one bucket still spreads
     across shards — the skew column shows the steering histogram the
     scalability contract consumes (zipf/heavy-tail skew it, floods do
     not). *)
  let sharded =
    if !soak_shards <= 1 then []
    else begin
      let shards = !soak_shards in
      let spec_of = function "lpm_prefix" -> lpm_spec | _ -> nat_spec in
      Fmt.pr "@.  sharded replay (x%d shards):@." shards;
      List.map
        (fun (name, _) ->
          let spec = spec_of name in
          let base = base_packets name in
          let n = List.length base in
          let stream = stream_of base n in
          let plan = Dataplane.Plan.make ~shards spec in
          let hist = Dataplane.Shard.load_histogram plan stream in
          let skew_pct =
            let m = Array.fold_left max 0 hist in
            100 * shards * m / max 1 (Array.fold_left ( + ) 0 hist)
          in
          let head = stream_of base (min n 2048) in
          let serial =
            Dataplane.Shard.with_engine plan (fun e ->
                Dataplane.Shard.replay e head)
          in
          let parallel =
            Dataplane.Shard.with_engine plan (fun e ->
                Dataplane.Shard.replay ~parallel:true e head)
          in
          let parity =
            Dataplane.Oracle.equivalence ~strict_bytes:true
              ~nf:(Nf.Spec.name spec) serial parallel
            = []
          in
          if not parity then
            failwith (name ^ ": sharded replay diverged from serial");
          let reps = if !quick then 2 else 3 in
          let w =
            let rec go i best =
              if i = 0 then best
              else
                go (i - 1)
                  (Float.min best
                     (Dataplane.Shard.with_engine plan (fun e ->
                          Dataplane.Shard.drain ~parallel:true e stream)))
            in
            go reps infinity
          in
          let pps = float_of_int n /. w in
          Fmt.pr "  %-16s %9.0f pps   skew %d%%   parity %b@." name pps
            skew_pct parity;
          (name, pps, skew_pct, parity))
        classes
    end
  in
  write_json ~packets
    ([
       ("artifact", Perf.Json.String "soak");
       ("quick", Perf.Json.Bool !quick);
       ("seed", Perf.Json.Int 2025);
       ( "classes",
         Perf.Json.List
           (List.map
              (fun (name, nf, n, pps, sound, report) ->
                Perf.Json.Obj
                  [
                    ("class", Perf.Json.String name);
                    ("nf", Perf.Json.String nf);
                    ("packets", Perf.Json.Int n);
                    ("pps", Perf.Json.Int (int_of_float pps));
                    ("contract_sound", Perf.Json.Bool sound);
                    ( "soundness_packets",
                      Perf.Json.Int report.Experiments.Validate.packets );
                    ( "worst_headroom_pct",
                      Perf.Json.Int
                        (int_of_float
                           report.Experiments.Validate.worst_headroom_pct) );
                  ])
              rows) );
       ( "collision_vs_uniform_slowdown_pct",
         Perf.Json.Int (int_of_float (100. *. degradation)) );
     ]
    @
    if sharded = [] then []
    else
      [
        ("shards", Perf.Json.Int !soak_shards);
        ( "sharded",
          Perf.Json.List
            (List.map
               (fun (name, pps, skew_pct, parity) ->
                 Perf.Json.Obj
                   [
                     ("class", Perf.Json.String name);
                     ("pps", Perf.Json.Int (int_of_float pps));
                     ("skew_pct", Perf.Json.Int skew_pct);
                     ("parity_ok", Perf.Json.Bool parity);
                   ])
               sharded) );
      ])

(* ---- Sharded dataplane: scalability contract vs measurement ----------- *)

(* For firewall, nat and maglev: derive the NFork-style scalability
   contract at 1/2/4 shards (per-packet worst-case cycles from the NF's
   own BOLT analysis, dispatch term from Dispatch.cost_vec, skew term
   from the workload's steering histogram), measure the parallel drain,
   and gate on the dataplane's correctness invariants.  Parity and the
   affinity oracles gate everywhere; the speedup and prediction-error
   gates only fire on multicore hosts — on a 1-core container the
   contract itself predicts no speedup (the 1/cores floor), so those
   assertions would be vacuous there. *)
let scale () =
  section "Scale — sharded dataplane: scalability contract vs measured pps";
  let packets = if !quick then 1024 else 4096 in
  let reps = if !quick then 2 else 3 in
  let cores = Domain.recommended_domain_count () in
  let results =
    List.map
      (fun nf -> Dataplane.Scale.run ~packets ~reps nf)
      Dataplane.Scale.default_nfs
  in
  List.iter (fun r -> Fmt.pr "%a@." Dataplane.Scale.pp r) results;
  let oracles =
    [
      Dataplane.Oracle.conntrack_affinity ~shards:4 ();
      Dataplane.Oracle.nat_affinity ~shards:4 ();
    ]
  in
  Fmt.pr "@.";
  List.iter (fun r -> Fmt.pr "  %a@." Dataplane.Oracle.pp r) oracles;
  (* gates: always — parity and affinity *)
  List.iter
    (fun (r : Dataplane.Scale.result) ->
      List.iter
        (fun (l : Dataplane.Scale.level) ->
          if not l.Dataplane.Scale.parity_ok then
            failwith
              (Printf.sprintf "scale: %s diverged at %d shards" r.nf
                 l.Dataplane.Scale.shards))
        r.Dataplane.Scale.levels)
    results;
  if not (List.for_all Dataplane.Oracle.ok oracles) then
    failwith "scale: dispatcher affinity oracle found violations";
  (* gates: multicore only — speedup materialises and the prediction
     lands within the stated bound (50% at 2 shards; beyond that the
     unmodelled cross-domain effects grow with the shard count) *)
  if cores >= 2 then
    List.iter
      (fun (r : Dataplane.Scale.result) ->
        match
          List.find_opt
            (fun (l : Dataplane.Scale.level) -> l.Dataplane.Scale.shards = 2)
            r.Dataplane.Scale.levels
        with
        | None -> ()
        | Some l ->
            if l.Dataplane.Scale.measured_pps <= r.Dataplane.Scale.baseline_pps
            then
              failwith
                (Printf.sprintf
                   "scale: %s shows no speedup at 2 shards on a %d-core host"
                   r.nf cores);
            if Float.abs l.Dataplane.Scale.error_pct > 50. then
              failwith
                (Printf.sprintf
                   "scale: %s prediction off by %.0f%% at 2 shards (bound \
                    50%%)"
                   r.nf l.Dataplane.Scale.error_pct))
      results
  else
    Fmt.pr
      "@.  NOTE: single-core environment — the contract predicts no \
       speedup here@.  (1/cores floor); speedup and error-bound gates \
       require a multicore host.@.";
  write_json ~packets
    [
      ("artifact", Perf.Json.String "scale");
      ("quick", Perf.Json.Bool !quick);
      ("cores", Perf.Json.Int cores);
      ("error_bound_pct_at_2_shards", Perf.Json.Int 50);
      ("nfs", Perf.Json.List (List.map Dataplane.Scale.to_json results));
      ( "affinity",
        Perf.Json.List
          (List.map
             (fun (r : Dataplane.Oracle.report) ->
               Perf.Json.Obj
                 [
                   ("nf", Perf.Json.String r.Dataplane.Oracle.nf);
                   ("shards", Perf.Json.Int r.Dataplane.Oracle.shards);
                   ("checked", Perf.Json.Int r.Dataplane.Oracle.checked);
                   ( "violations",
                     Perf.Json.Int
                       (List.length r.Dataplane.Oracle.violations) );
                 ])
             oracles) );
    ]

(* ---- Network-wide contracts over the built-in topologies -------------- *)

(* For every built-in topology: jointly analyse the graph (route-tuple
   pruning included), compare the composed end-to-end bound against the
   naive sum of per-node worst cases (the Figure 3 property, network-
   wide), then replay the topology's deterministic workload through the
   specialized per-node harness and check every packet against the
   composed bound at its own observed PCVs.  Both properties gate: a
   contract violation or a composed bound that beats nothing fails the
   run. *)
let topo () =
  section "Topo — network-wide contracts: composed bound vs naive addition";
  let packets = if !quick then 256 else 1024 in
  let eval_all vecs vec metric =
    (* bind every PCV appearing in any compared vector to the same
       adversarial value, so const and PCV-bearing bounds compare *)
    let binding =
      List.sort_uniq compare (List.concat_map Perf.Cost_vec.pcvs vecs)
      |> List.map (fun p -> (p, 3))
    in
    Perf.Perf_expr.eval_exn binding (Perf.Cost_vec.get vec metric)
  in
  let rows =
    List.map
      (fun (entry : Topo.Builtin.entry) ->
        let g = entry.Topo.Builtin.graph in
        let t = Topo.Analysis.run g in
        let joint = Topo.Analysis.worst t in
        let naive =
          (* per-node standalone worst cases, added — what an operator
             without the joint walk would have to provision for *)
          List.fold_left
            (fun acc (_, (e : Nf.Registry.entry)) ->
              let pt =
                Bolt.Pipeline.analyze
                  ~config:
                    Bolt.Pipeline.Config.(
                      default |> with_contracts e.Nf.Registry.contracts)
                  e.Nf.Registry.program
              in
              Perf.Cost_vec.add acc (Bolt.Pipeline.worst_case pt))
            Perf.Cost_vec.zero t.Topo.Analysis.entries
        in
        let joint_ic = eval_all [ joint; naive ] joint Perf.Metric.Instructions
        and naive_ic =
          eval_all [ joint; naive ] naive Perf.Metric.Instructions
        in
        if joint_ic > naive_ic then
          failwith
            (g.Topo.Graph.name
           ^ ": composed bound exceeds naive addition — composition bug");
        let harness = Topo.Harness.create g in
        let report =
          Topo.Harness.check harness ~worst:joint
            (entry.Topo.Builtin.workload ~packets)
        in
        if report.Topo.Harness.violations <> [] then begin
          Fmt.epr "%a@." Topo.Harness.pp_report report;
          failwith (g.Topo.Graph.name ^ ": measured cost escaped the bound")
        end;
        Fmt.pr
          "  %-14s %2d routes (%2d pruned)  joint IC %4d vs naive %4d \
           (%2.0f%% tighter)  %d pkts sound, headroom %.1f%%@."
          g.Topo.Graph.name
          (List.length t.Topo.Analysis.routes)
          t.Topo.Analysis.infeasible_routes joint_ic naive_ic
          (100. *. float_of_int (naive_ic - joint_ic) /. float_of_int naive_ic)
          report.Topo.Harness.packets report.Topo.Harness.worst_headroom_pct;
        (g.Topo.Graph.name, t, joint_ic, naive_ic, report))
      (Topo.Builtin.all ())
  in
  (* the headline property: joint analysis strictly beats naive addition
     on at least one topology (Figure 3, network-wide) *)
  if not (List.exists (fun (_, _, j, n, _) -> j < n) rows) then
    failwith "topo: joint bound never beat naive addition";
  write_json ~packets
    [
      ("artifact", Perf.Json.String "topo");
      ("quick", Perf.Json.Bool !quick);
      ( "topologies",
        Perf.Json.List
          (List.map
             (fun (name, t, joint_ic, naive_ic, report) ->
                     Perf.Json.Obj
                       [
                         ("name", Perf.Json.String name);
                         ( "routes",
                           Perf.Json.Int (List.length t.Topo.Analysis.routes)
                         );
                         ( "infeasible_pruned",
                           Perf.Json.Int t.Topo.Analysis.infeasible_routes );
                         ("unsolved", Perf.Json.Int t.Topo.Analysis.unsolved);
                         ("joint_ic", Perf.Json.Int joint_ic);
                         ("naive_ic", Perf.Json.Int naive_ic);
                         ( "tighter_pct",
                           Perf.Json.Int
                             (100 * (naive_ic - joint_ic) / naive_ic) );
                         ( "packets",
                           Perf.Json.Int report.Topo.Harness.packets );
                         ("contract_sound", Perf.Json.Bool true);
                         ( "worst_headroom_pct",
                           Perf.Json.Int
                             (int_of_float
                                report.Topo.Harness.worst_headroom_pct) );
                         ( "egresses",
                           Perf.Json.List
                             (List.map
                                (fun eg ->
                                  let cost, n =
                                    Topo.Analysis.egress_cost t eg
                                  in
                                  Perf.Json.Obj
                                    [
                                      ( "egress",
                                        Perf.Json.String
                                          (Fmt.str "%a"
                                             Topo.Analysis.pp_egress eg) );
                                      ("routes", Perf.Json.Int n);
                                      ( "ic",
                                        Perf.Json.Int
                                          (eval_all [ cost ] cost
                                             Perf.Metric.Instructions) );
                                    ])
                                (Topo.Analysis.egresses t)) );
                       ])
             rows) );
    ]

let chain3 () =
  section "Extension — three-NF chain, jointly analysed";
  Experiments.Extensions.chain3 Fmt.stdout

let ablations () =
  section "Ablation — class coalescing";
  Experiments.Extensions.ablation_coalescing Fmt.stdout;
  section "Ablation — conservative hardware model's L1 tracking";
  Experiments.Extensions.ablation_hw_model Fmt.stdout;
  section "Ablation — exact linearization in the symbolic engine";
  Experiments.Extensions.ablation_linearization Fmt.stdout

(* ---- Bechamel micro-benchmarks ---------------------------------------- *)

let bechamel_suite () =
  section "Bechamel micro-benchmarks (one per artifact family)";
  let open Bechamel in
  let quiet () = Exec.Meter.create (Hw.Model.null ()) in
  let alloc = Dslib.Layout.allocator () in
  let trie = Dslib.Lpm_trie.create ~base:(Dslib.Layout.region alloc)
      ~default_port:0 in
  Dslib.Lpm_trie.add_route trie ~prefix:0x0a000000 ~len:16 ~port:3;
  let map = Dslib.Hash_map.create ~base:(Dslib.Layout.region alloc)
      ~key_len:5 ~capacity:1024 ~buckets:1024 () in
  let key = [| 1; 2; 3; 4; 5 |] in
  ignore (Dslib.Hash_map.put map (quiet ()) key 9);
  let ft = Dslib.Flow_table.create ~base:(Dslib.Layout.region alloc)
      ~key_len:5 ~capacity:1024 ~buckets:1024 ~timeout:1000 () in
  let alloc_a = Dslib.Port_alloc.dll ~base:(Dslib.Layout.region alloc)
      ~port_lo:0 ~port_hi:1023 in
  let alloc_b = Dslib.Port_alloc.array ~base:(Dslib.Layout.region alloc)
      ~port_lo:0 ~port_hi:1023 in
  let ring = Dslib.Hash_ring.create ~base:(Dslib.Layout.region alloc)
      ~table_size:4099 ~backends:[ 0; 1; 2; 3 ] in
  let mac = Dslib.Mac_table.create ~base:(Dslib.Layout.region alloc)
      ~capacity:1024 ~buckets:1024 ~timeout:1_000_000 ~threshold:6 () in
  let nat_dss, _ = Nf.Nat.setup (Dslib.Layout.allocator ()) in
  let nat_packet =
    Net.Build.udp ~src_ip:0x0a000001 ~dst_ip:0x5db8d822 ~src_port:5000
      ~dst_port:80 ()
  in
  let nat_meter = Exec.Meter.create (Hw.Model.realistic ()) in
  let counter = ref 0 in
  let tests =
    [
      (* Tables 1/2: the running example's data structure *)
      Test.make ~name:"table1_2/lpm_trie.lookup"
        (Staged.stage (fun () ->
             ignore (Dslib.Lpm_trie.lookup trie (quiet ()) 0x0a0000ff)));
      (* Figure 1: a production NAT packet *)
      Test.make ~name:"figure1/nat.production_packet"
        (Staged.stage (fun () ->
             ignore
               (Exec.Interp.run ~meter:nat_meter
                  ~mode:(Exec.Interp.Production nat_dss) ~in_port:0
                  ~now:1_000_000 Nf.Nat.program nat_packet)));
      (* Table 3: cycle models *)
      Test.make ~name:"table3/realistic_model_access"
        (Staged.stage
           (let m = Hw.Realistic.create () in
            fun () ->
              incr counter;
              Hw.Realistic.mem m ~addr:(!counter * 64) ~write:false
                ~dependent:false));
      (* Table 4 / Figure 2: MAC learning *)
      Test.make ~name:"table4/mac_table.learn"
        (Staged.stage (fun () ->
             incr counter;
             Dslib.Mac_table.learn mac (quiet ())
               ~mac:(0x020000000000 lor (!counter land 0x3ff))
               ~port:1 ~now:1_000_000));
      (* Tables 5/Figure 3: symbolic execution of a stateless NF *)
      Test.make ~name:"table5/symbex.firewall"
        (Staged.stage (fun () ->
             ignore
               (Symbex.Engine.explore ~models:Bolt.Ds_models.default
                  Nf.Firewall.program)));
      (* Table 6: the NAT's hash-map probe *)
      Test.make ~name:"table6/hash_map.get_hit"
        (Staged.stage (fun () ->
             ignore (Dslib.Hash_map.get map (quiet ()) key)));
      (* Tables 7/8 / Figure 4: flow-table stamp + expiry machinery *)
      Test.make ~name:"table7_8/flow_table.put_get"
        (Staged.stage (fun () ->
             incr counter;
             let k = [| !counter land 0xff; 2; 3; 4; 5 |] in
             ignore (Dslib.Flow_table.put ft (quiet ()) k ~value:1
                       ~now:1_000_000);
             ignore (Dslib.Flow_table.get ft (quiet ()) k ~now:1_000_001)));
      (* Figures 5/6/7: the two allocators *)
      Test.make ~name:"figure5/port_alloc.dll"
        (Staged.stage (fun () ->
             let p = Dslib.Port_alloc.alloc alloc_a (quiet ()) in
             if p >= 0 then Dslib.Port_alloc.free alloc_a (quiet ()) p));
      Test.make ~name:"figure5/port_alloc.array"
        (Staged.stage (fun () ->
             let p = Dslib.Port_alloc.alloc alloc_b (quiet ()) in
             if p >= 0 then Dslib.Port_alloc.free alloc_b (quiet ()) p));
      (* P1/P2/P3: Maglev ring lookup as the array-access kernel *)
      Test.make ~name:"p123/hash_ring.backend_for"
        (Staged.stage (fun () ->
             incr counter;
             ignore (Dslib.Hash_ring.backend_for ring (quiet ()) !counter)));
      (* extensions *)
      Test.make ~name:"ext/count_min.update"
        (Staged.stage
           (let cm =
              Dslib.Count_min.create ~base:(Dslib.Layout.region alloc)
                ~rows:4 ~width:1024
            in
            fun () ->
              incr counter;
              ignore
                (Dslib.Count_min.update cm (quiet ())
                   ~key:[| !counter land 0xffff; 0; 0; 0; 17 |])));
      Test.make ~name:"ext/token_bucket.conform"
        (Staged.stage
           (let tb =
              Dslib.Token_bucket.create ~base:(Dslib.Layout.region alloc)
                ~rate:100 ~burst:100_000 ()
            in
            fun () ->
              incr counter;
              ignore
                (Dslib.Token_bucket.conform tb (quiet ()) ~bytes:60
                   ~now:!counter)));
      Test.make ~name:"ext/conntrack.production_packet"
        (Staged.stage
           (let dss, _ = Nf.Conntrack.setup (Dslib.Layout.allocator ()) in
            let meter = Exec.Meter.create (Hw.Model.realistic ()) in
            fun () ->
              incr counter;
              ignore
                (Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss)
                   ~in_port:0 ~now:(1_000_000 + !counter)
                   Nf.Conntrack.program nat_packet)));
    ]
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if !quick then 0.1 else 0.4))
      ~kde:None ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped
        ~name:"" [ test ]) in
      let analysed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> Fmt.pr "  %-36s %12.1f ns/run@." name ns
          | _ -> Fmt.pr "  %-36s (no estimate)@." name)
        analysed)
    tests

(* ---- Driver ------------------------------------------------------------ *)

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("figure1", figure1_table3);
    ("table3", figure1_table3);
    ("p123", p123);
    ("table4", table4);
    ("figure2", figure2);
    ("table5", table5);
    ("figure3", figure3);
    ("table6", table6);
    ("table7", tables7_8_figure4);
    ("table8", tables7_8_figure4);
    ("figure4", tables7_8_figure4);
    ("figure5", figures5_6_7);
    ("figure6_7", figures5_6_7);
    ("conntrack", conntrack);
    ("speedup", speedup);
    ("floors", floors);
    ("throughput", exec_throughput);
    ("soak", soak);
    ("scale", scale);
    ("topo", topo);
    ("chain3", chain3);
    ("ablations", ablations);
    ("bechamel", bechamel_suite);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec absorb = function
    | "--quick" :: rest ->
        quick := true;
        absorb rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        absorb rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> jobs := Some n
        | _ ->
            Fmt.epr "--jobs expects a positive integer, got %S@." n;
            exit 1);
        absorb rest
    | "--json" :: path :: rest ->
        json_path := Some path;
        absorb rest
    | "--shards" :: n :: rest ->
        (match int_of_string_opt n with
        | Some n when n >= 1 -> soak_shards := n
        | _ ->
            Fmt.epr "--shards expects a positive integer, got %S@." n;
            exit 1);
        absorb rest
    | "--trace" :: path :: rest ->
        trace_path := Some path;
        absorb rest
    | a :: rest -> a :: absorb rest
    | [] -> []
  in
  let args = absorb args in
  if !trace_path <> None then Obs.enable ();
  let run_selected () =
    match args with
    | [] ->
        (* everything, deduplicated, in paper order *)
        table1 ();
        table2 ();
        figure1_table3 ();
        p123 ();
        table4 ();
        figure2 ();
        table5 ();
        figure3 ();
        table6 ();
        tables7_8_figure4 ();
        figures5_6_7 ();
        conntrack ();
        speedup ();
        floors ();
        exec_throughput ();
        soak ();
        scale ();
        topo ();
        chain3 ();
        ablations ();
        bechamel_suite ()
    | names ->
        List.iter
          (fun name ->
            match List.assoc_opt name artifacts with
            | Some run -> run ()
            | None ->
                Fmt.epr "unknown artifact %S; known: %a@." name
                  Fmt.(list ~sep:(any ", ") string)
                  (List.map fst artifacts);
                exit 1)
          names
  in
  let write_trace () =
    match !trace_path with
    | Some path ->
        Obs.Trace_io.write ~path;
        Fmt.epr "wrote trace %s@." path
    | None -> ()
  in
  Fun.protect ~finally:write_trace run_selected
