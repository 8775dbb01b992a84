(* Tests for the sharded dataplane: dispatcher steering laws, NAT port
   slicing, plan construction, bit-level replay parity (serial vs
   parallel, shards-N vs shards-1), the dispatcher-affinity oracles and
   the scalability-contract runner. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let udp_flow f = Net.Build.udp_of_flow f

let some_flows n =
  Workload.Gen.distinct_flows (Workload.Prng.create ~seed:99) n

(* ---- Dispatch -------------------------------------------------------- *)

let test_hash_matches_flow_hash () =
  List.iter
    (fun f ->
      let pkt = udp_flow f in
      check_int "dispatch hash = Net.Flow.hash_key"
        (Net.Flow.hash_key f)
        (Dataplane.Dispatch.hash_flow ~symmetric:false pkt))
    (some_flows 32)

let test_symmetric_hash () =
  List.iter
    (fun f ->
      let h d = Dataplane.Dispatch.hash_flow ~symmetric:true (udp_flow d) in
      check_int "hash(fwd) = hash(rev)" (h f) (h (Net.Flow.reverse f)))
    (some_flows 32)

let test_unhashable_pins_to_zero () =
  List.iter
    (fun pkt ->
      check_bool "non-flow packet lands on shard 0" true
        (Dataplane.Dispatch.steer Dataplane.Dispatch.Flow_hash ~shards:4
           ~in_port:0 pkt
        = Dataplane.Dispatch.Shard 0))
    [ Net.Build.non_ip (); Net.Build.eth ~ethertype:0x86dd () ]

let test_nat_slices_partition () =
  let port_lo = 1024 and port_hi = 9215 in
  List.iter
    (fun shards ->
      (* slices are contiguous, disjoint, covering, and owner inverts *)
      let expect_lo = ref port_lo in
      for i = 0 to shards - 1 do
        let lo, hi =
          Dataplane.Dispatch.nat_slice ~port_lo ~port_hi ~shards i
        in
        check_int "contiguous" !expect_lo lo;
        check_bool "non-empty" true (hi >= lo);
        expect_lo := hi + 1;
        List.iter
          (fun p ->
            check_int "owner inverts slice" i
              (Dataplane.Dispatch.nat_owner ~port_lo ~port_hi ~shards p))
          [ lo; (lo + hi) / 2; hi ]
      done;
      check_int "covering" (port_hi + 1) !expect_lo)
    [ 1; 2; 3; 4; 7 ];
  check_int "out-of-range port goes to shard 0" 0
    (Dataplane.Dispatch.nat_owner ~port_lo ~port_hi ~shards:4 80);
  Alcotest.check_raises "range smaller than shard count"
    (Invalid_argument
       "Dispatch.nat_slice: port range 10-12 has 3 ports, fewer than 4 \
        shards")
    (fun () ->
      ignore (Dataplane.Dispatch.nat_slice ~port_lo:10 ~port_hi:12 ~shards:4 0))

let test_lb_broadcasts_heartbeats () =
  let policy =
    Dataplane.Dispatch.Lb { heartbeat_port = Nf.Maglev.heartbeat_port }
  in
  let hb =
    List.hd
      (Workload.Gen.heartbeat_frames ~backend_ids:[ 3 ]
         ~port:Nf.Maglev.heartbeat_port)
  in
  check_bool "heartbeat on the external port broadcasts" true
    (Dataplane.Dispatch.steer policy ~shards:4 ~in_port:1 hb
    = Dataplane.Dispatch.Broadcast);
  check_bool "same frame on the client port is steered" true
    (Dataplane.Dispatch.steer policy ~shards:4 ~in_port:0 hb
    <> Dataplane.Dispatch.Broadcast)

(* ---- Plan ------------------------------------------------------------ *)

let test_plan_rejects_unshardable () =
  List.iter
    (fun name ->
      let spec = Nf.Spec.of_name name in
      check_bool (name ^ " is not shardable") false
        (Dataplane.Plan.shardable spec);
      match Dataplane.Plan.make ~shards:2 spec with
      | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
      | exception Invalid_argument _ -> ())
    [ "policer"; "bridge" ]

let test_plan_slices_nat_ports () =
  let plan = Dataplane.Plan.make ~shards:4 (Nf.Spec.of_name "nat") in
  let ranges =
    Array.to_list plan.Dataplane.Plan.specs
    |> List.map (function
         | Nf.Spec.Nat c -> (c.Nf.Nat.port_lo, c.port_hi)
         | _ -> Alcotest.fail "shard spec is not a NAT")
  in
  let sorted = List.sort compare ranges in
  check_bool "slices ordered and disjoint" true
    (List.for_all2 ( = ) ranges sorted);
  List.iteri
    (fun i (lo, hi) ->
      ignore i;
      check_bool "slice non-empty" true (hi >= lo))
    ranges;
  (* replicated geometry: every other knob matches the base config *)
  Array.iter
    (function
      | Nf.Spec.Nat c ->
          check_int "capacity replicated" Nf.Nat.default_config.Nf.Nat.capacity
            c.Nf.Nat.capacity
      | _ -> ())
    plan.Dataplane.Plan.specs

(* ---- Shard replay parity --------------------------------------------- *)

let stream_for nf packets =
  Dataplane.Scale.workload ~nf ~seed:5 ~packets

let test_parallel_equals_serial () =
  (* bit-identical parallel vs serial replay at every shard count, for
     every shardable NF with distinct steering policies *)
  List.iter
    (fun nf ->
      let stream = stream_for nf 256 in
      List.iter
        (fun shards ->
          let plan = Dataplane.Plan.make ~shards (Nf.Spec.of_name nf) in
          let serial =
            Dataplane.Shard.with_engine plan (fun e ->
                Dataplane.Shard.replay e stream)
          in
          let parallel =
            Dataplane.Shard.with_engine plan (fun e ->
                Dataplane.Shard.replay ~parallel:true e stream)
          in
          match
            Dataplane.Oracle.equivalence ~strict_bytes:true ~nf serial
              parallel
          with
          | [] -> ()
          | v :: _ ->
              Alcotest.failf "%s x%d parallel != serial: %s" nf shards v)
        [ 1; 2; 3; 4 ])
    [ "firewall"; "conntrack"; "nat"; "maglev" ]

let test_sharded_equals_single () =
  (* shards-N outcomes = shards-1 outcomes; bytes too for every NF but
     the NAT (its shards allocate from disjoint port slices) *)
  List.iter
    (fun nf ->
      let stream = stream_for nf 256 in
      let reference =
        Dataplane.Shard.with_engine
          (Dataplane.Plan.make ~shards:1 (Nf.Spec.of_name nf))
          (fun e -> Dataplane.Shard.replay e stream)
      in
      List.iter
        (fun shards ->
          let sharded =
            Dataplane.Shard.with_engine
              (Dataplane.Plan.make ~shards (Nf.Spec.of_name nf))
              (fun e -> Dataplane.Shard.replay ~parallel:true e stream)
          in
          match
            Dataplane.Oracle.equivalence ~strict_bytes:(nf <> "nat") ~nf
              reference sharded
          with
          | [] -> ()
          | v :: _ -> Alcotest.failf "%s x%d != x1: %s" nf shards v)
        [ 2; 4 ])
    [ "firewall"; "conntrack"; "nat"; "maglev" ]

let test_replay_state_persists () =
  (* the engine's shard-local state carries across replay calls: a
     conntrack reply passes only because the earlier call opened it *)
  let plan = Dataplane.Plan.make ~shards:2 (Nf.Spec.of_name "conntrack") in
  let f = List.hd (some_flows 1) in
  Dataplane.Shard.with_engine plan (fun e ->
      let open_r =
        Dataplane.Shard.replay e
          [ Workload.Stream.entry ~in_port:0 (udp_flow f) ]
      in
      check_bool "outbound opener passes" true
        (match open_r.(0).Dataplane.Shard.outcome with
        | Exec.Interp.Sent _ -> true
        | _ -> false);
      let reply =
        Dataplane.Shard.replay e
          [
            Workload.Stream.entry ~in_port:1 (udp_flow (Net.Flow.reverse f));
          ]
      in
      check_bool "reply passes against persisted state" true
        (reply.(0).Dataplane.Shard.outcome = Exec.Interp.Sent 0))

let test_load_histogram () =
  let stream = stream_for "maglev" 128 in
  let plan = Dataplane.Plan.make ~shards:4 (Nf.Spec.of_name "maglev") in
  let hist = Dataplane.Shard.load_histogram plan stream in
  check_int "histogram bins" 4 (Array.length hist);
  let hbs = 16 in
  (* broadcast heartbeats count once per shard *)
  check_int "histogram total = flows + shards*heartbeats"
    (Workload.Stream.length stream - hbs + (4 * hbs))
    (Array.fold_left ( + ) 0 hist)

(* ---- Oracles --------------------------------------------------------- *)

let test_conntrack_oracle () =
  List.iter
    (fun shards ->
      let r = Dataplane.Oracle.conntrack_affinity ~shards () in
      if not (Dataplane.Oracle.ok r) then
        Alcotest.failf "conntrack x%d: %s" shards
          (List.hd r.Dataplane.Oracle.violations))
    [ 1; 2; 3; 4 ]

let test_nat_oracle () =
  List.iter
    (fun shards ->
      let r = Dataplane.Oracle.nat_affinity ~shards () in
      if not (Dataplane.Oracle.ok r) then
        Alcotest.failf "nat x%d: %s" shards
          (List.hd r.Dataplane.Oracle.violations))
    [ 1; 2; 3; 4 ]

(* ---- Scalability contract runner ------------------------------------- *)

let test_scale_run () =
  let r = Dataplane.Scale.run ~levels:[ 1; 2 ] ~packets:128 ~reps:1 "firewall" in
  check_int "levels" 2 (List.length r.Dataplane.Scale.levels);
  check_bool "baseline positive" true (r.Dataplane.Scale.baseline_pps > 0.);
  List.iter
    (fun (l : Dataplane.Scale.level) ->
      check_bool "parity holds" true l.Dataplane.Scale.parity_ok;
      check_bool "measured positive" true (l.Dataplane.Scale.measured_pps > 0.))
    r.Dataplane.Scale.levels;
  let l1 = List.hd r.Dataplane.Scale.levels in
  check_int "no dispatch term at one shard" 0
    l1.Dataplane.Scale.contract.Perf.Scale.dispatch_cycles;
  check_int "one shard predicts the baseline" 100
    l1.Dataplane.Scale.contract.Perf.Scale.predicted_speedup_pct;
  (* the JSON artifact is self-describing *)
  (match Dataplane.Scale.to_json r with
  | Perf.Json.Obj fields ->
      check_bool "provenance embedded" true
        (List.mem_assoc "provenance" fields)
  | _ -> Alcotest.fail "to_json: expected an object");
  (* the suite artifact both front-ends write *)
  let s =
    Dataplane.Scale.run_suite ~levels:[ 1; 2 ] ~packets:128 ~reps:1
      [ "firewall" ]
  in
  Alcotest.(check (list string))
    "suite keys"
    [ "artifact"; "cores"; "error_bound_pct_at_2_shards"; "nfs"; "affinity" ]
    (List.map fst (Dataplane.Scale.suite_json s));
  check_int "affinity oracles at 2 shards" 2
    (List.length
       (List.filter
          (fun (o : Dataplane.Oracle.report) -> o.Dataplane.Oracle.shards = 2)
          s.Dataplane.Scale.affinity));
  Alcotest.(check (list string)) "no correctness failure" []
    s.Dataplane.Scale.failures

(* ---- Scale verdict over hand-built results (no timing) --------------- *)

let level ?(parity_ok = true) ?(error_pct = 0.) shards measured_pps =
  {
    Dataplane.Scale.shards;
    contract =
      Perf.Scale.derive ~nf:"fw" ~shards ~cores:2 ~per_packet_cycles:100
        ~dispatch_cycles:0 ~shard_loads:(Array.make shards 1);
    predicted_pps = measured_pps;
    measured_pps;
    parity_ok;
    error_pct;
  }

let result nf levels =
  {
    Dataplane.Scale.nf;
    packets = 64;
    cores = 2;
    baseline_pps = 1000.;
    per_packet_cycles = 100;
    dispatch_cycles = 10;
    levels;
  }

let affinity violations =
  { Dataplane.Oracle.nf = "nat"; shards = 2; checked = 8; violations }

let verdict ~cores results =
  Dataplane.Scale.verdict ~cores results [ affinity [] ]

let check_msgs = Alcotest.(check (list string))

let test_verdict_one_core () =
  let slow = result "fw" [ level 1 1000.; level ~error_pct:300. 2 500. ] in
  let failures, misses = verdict ~cores:1 [ slow ] in
  check_msgs "no failures" [] failures;
  check_msgs "no misses on one core" [] misses

let test_verdict_no_speedup () =
  let fast = result "nat" [ level 1 1000.; level 2 1800. ] in
  let slow = result "fw" [ level 1 1000.; level 2 1000. ] in
  let _, misses = verdict ~cores:2 [ fast; slow ] in
  check_msgs "exactly the no-speedup miss"
    [ "scale: fw shows no speedup at 2 shards on a 2-core host" ]
    misses

let test_verdict_error_bound () =
  let off = result "fw" [ level 1 1000.; level ~error_pct:51. 2 1500. ] in
  let _, misses = verdict ~cores:2 [ off ] in
  check_msgs "error-bound miss"
    [ "scale: fw prediction off by 51% at 2 shards (bound 50%)" ]
    misses;
  let within = result "fw" [ level 1 1000.; level ~error_pct:(-50.) 2 1500. ] in
  check_msgs "50% is within the bound" [] (snd (verdict ~cores:2 [ within ]))

let test_verdict_parity_first () =
  let broken =
    result "fw"
      [
        level 1 1000.;
        level ~parity_ok:false 2 900.;
        level ~parity_ok:false 4 900.;
      ]
  in
  let failures, misses =
    Dataplane.Scale.verdict ~cores:2 [ broken ] [ affinity [ "x" ] ]
  in
  check_msgs "parity per level, then affinity"
    [
      "scale: fw diverged at 2 shards";
      "scale: fw diverged at 4 shards";
      "scale: dispatcher affinity oracle found violations";
    ]
    failures;
  check_msgs "the miss is still reported"
    [ "scale: fw shows no speedup at 2 shards on a 2-core host" ]
    misses

let suite =
  [
    Alcotest.test_case "dispatch: hash matches Net.Flow.hash_key" `Quick
      test_hash_matches_flow_hash;
    Alcotest.test_case "dispatch: symmetric hash is direction-blind" `Quick
      test_symmetric_hash;
    Alcotest.test_case "dispatch: unhashable packets pin to shard 0" `Quick
      test_unhashable_pins_to_zero;
    Alcotest.test_case "dispatch: NAT port slices partition the range"
      `Quick test_nat_slices_partition;
    Alcotest.test_case "dispatch: lb heartbeats broadcast" `Quick
      test_lb_broadcasts_heartbeats;
    Alcotest.test_case "plan: policer and bridge are rejected" `Quick
      test_plan_rejects_unshardable;
    Alcotest.test_case "plan: NAT shards get disjoint port slices" `Quick
      test_plan_slices_nat_ports;
    Alcotest.test_case "shard: parallel replay == serial replay" `Quick
      test_parallel_equals_serial;
    Alcotest.test_case "shard: shards-N outcomes == shards-1" `Quick
      test_sharded_equals_single;
    Alcotest.test_case "shard: state persists across replays" `Quick
      test_replay_state_persists;
    Alcotest.test_case "shard: load histogram counts broadcasts per shard"
      `Quick test_load_histogram;
    Alcotest.test_case "oracle: conntrack affinity" `Quick
      test_conntrack_oracle;
    Alcotest.test_case "oracle: NAT affinity" `Quick test_nat_oracle;
    Alcotest.test_case "scale: contract runner and artifact" `Quick
      test_scale_run;
    Alcotest.test_case "scale verdict: one core disarms performance gates"
      `Quick test_verdict_one_core;
    Alcotest.test_case "scale verdict: no speedup at 2 shards" `Quick
      test_verdict_no_speedup;
    Alcotest.test_case "scale verdict: error beyond the 50% bound" `Quick
      test_verdict_error_bound;
    Alcotest.test_case "scale verdict: correctness failures come first"
      `Quick test_verdict_parity_first;
  ]
