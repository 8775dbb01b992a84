(* Tests for the workload generators and the tooling extensions (contract
   diffing, sensitivity analysis). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- PRNG ----------------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Workload.Prng.create ~seed:9 in
  let b = Workload.Prng.create ~seed:9 in
  for _ = 1 to 100 do
    check_int "same stream" (Workload.Prng.next a) (Workload.Prng.next b)
  done;
  let c = Workload.Prng.create ~seed:10 in
  check_bool "different seed differs" true
    (Workload.Prng.next a <> Workload.Prng.next c)

let test_prng_ranges () =
  let rng = Workload.Prng.create ~seed:3 in
  for _ = 1 to 1000 do
    let v = Workload.Prng.below rng 7 in
    check_bool "below" true (v >= 0 && v < 7);
    let w = Workload.Prng.range rng ~lo:5 ~hi:9 in
    check_bool "range" true (w >= 5 && w <= 9)
  done;
  (match Workload.Prng.below rng 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bound accepted");
  (* rough uniformity: each residue of 4 gets 15-35% *)
  let counts = Array.make 4 0 in
  for _ = 1 to 4000 do
    let v = Workload.Prng.below rng 4 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c -> check_bool "roughly uniform" true (c > 600 && c < 1400))
    counts

(* ---- Generators ------------------------------------------------------------ *)

let test_distinct_flows () =
  let rng = Workload.Prng.create ~seed:4 in
  let flows = Workload.Gen.distinct_flows rng 200 in
  check_int "count" 200 (List.length flows);
  check_int "distinct" 200
    (List.length (List.sort_uniq Net.Flow.compare flows));
  List.iter
    (fun (f : Net.Flow.t) ->
      check_bool "valid proto" true
        (f.Net.Flow.proto = Net.Ipv4.proto_tcp
        || f.Net.Flow.proto = Net.Ipv4.proto_udp))
    flows

let test_distinct_flows_negative () =
  let rng = Workload.Prng.create ~seed:4 in
  check_int "none" 0 (List.length (Workload.Gen.distinct_flows rng 0));
  Alcotest.check_raises "negative count"
    (Invalid_argument "Gen.distinct_flows: negative count") (fun () ->
      ignore (Workload.Gen.distinct_flows rng (-4)))

let test_packets_parse_back () =
  let rng = Workload.Prng.create ~seed:5 in
  let flows = Workload.Gen.distinct_flows rng 50 in
  List.iter2
    (fun flow packet ->
      match Net.Flow.of_packet packet with
      | Some f -> check_bool "5-tuple preserved" true (Net.Flow.equal f flow)
      | None -> Alcotest.fail "generated packet unparsable")
    flows
    (Workload.Gen.packets_of_flows flows)

let test_churn_stream () =
  let rng = Workload.Prng.create ~seed:6 in
  let stream =
    Workload.Gen.churn rng ~pool:16 ~packets:500 ~new_flow_prob:0.2 ~gap:10
      ~start:1000
  in
  check_int "length" 500 (List.length stream);
  (* timestamps strictly increase by gap *)
  let rec check_times i = function
    | { Workload.Stream.now; _ } :: rest ->
        check_int "timestamp" (1000 + (i * 10)) now;
        check_times (i + 1) rest
    | [] -> ()
  in
  check_times 0 stream;
  (* churn produces more distinct flows than the pool *)
  let distinct =
    List.filter_map
      (fun e -> Net.Flow.of_packet e.Workload.Stream.packet)
      stream
    |> List.sort_uniq Net.Flow.compare |> List.length
  in
  check_bool "churn grows flow count" true (distinct > 16)

let test_heartbeats () =
  let frames =
    Workload.Gen.heartbeat_frames ~backend_ids:[ 0; 3; 7 ] ~port:9999
  in
  check_int "one per backend" 3 (List.length frames);
  List.iter2
    (fun b frame ->
      check_int "dst port" 9999 (Net.L4.get_dst_port frame);
      check_int "encodes backend" b (Net.Ipv4.get_src frame land 0xff))
    [ 0; 3; 7 ] frames

let test_adversarial_collisions () =
  let rng = Workload.Prng.create ~seed:7 in
  let ft =
    Dslib.Flow_table.create ~base:0x7800_0000 ~key_len:5 ~capacity:64
      ~buckets:64 ~timeout:1000 ()
  in
  let keys =
    Workload.Adversarial.colliding_flows rng
      ~hash:(Dslib.Flow_table.hash_of_key ft)
      ~key_len:5 ~bucket:0 32
  in
  check_int "count" 32 (List.length keys);
  List.iter
    (fun key ->
      check_int "all in bucket 0" 0 (Dslib.Flow_table.hash_of_key ft key))
    keys;
  check_int "distinct" 32 (List.length (List.sort_uniq compare keys))

let test_fill_collided_then_mass_expiry () =
  let rng = Workload.Prng.create ~seed:8 in
  let ft =
    Dslib.Flow_table.create ~base:0x7900_0000 ~key_len:5 ~capacity:32
      ~buckets:32 ~timeout:1000 ()
  in
  Workload.Adversarial.fill_flow_table_collided ft rng ~value:1
    ~stamped_at:500;
  check_int "full" 32 (Dslib.Flow_table.size ft);
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  check_int "mass expiry" 32 (Dslib.Flow_table.expire ft meter ~now:10_000)

let test_colliding_flows_arbitrary_bucket () =
  (* the collision sampler must aim at any bucket, not just 0, and on
     the NAT's hash as well as the flow table's *)
  let rng = Workload.Prng.create ~seed:21 in
  let alloc =
    Dslib.Port_alloc.dll ~base:0x7a00_0000 ~port_lo:1000 ~port_hi:1063
  in
  let nat =
    Dslib.Nat_table.create ~base:0x7a10_0000 ~capacity:64 ~buckets:16
      ~timeout:1000 ~alloc ~port_lo:1000 ~port_hi:1063 ()
  in
  let keys =
    Workload.Adversarial.colliding_flows rng
      ~hash:(Dslib.Nat_table.hash_of_flow nat)
      ~key_len:5 ~bucket:11 24
  in
  check_int "count" 24 (List.length keys);
  check_int "distinct" 24 (List.length (List.sort_uniq compare keys));
  List.iter
    (fun key ->
      check_int "lands in bucket 11" 11 (Dslib.Nat_table.hash_of_flow nat key))
    keys

let test_colliding_flows_exhaustion () =
  (* an unreachable bucket must fail loudly — a descriptive
     Invalid_argument naming the budget, not a silent hang or a short
     list *)
  let rng = Workload.Prng.create ~seed:23 in
  let contains ~sub s =
    let n = String.length sub in
    let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
    at 0
  in
  (match
     Workload.Adversarial.colliding_flows rng ~budget:1000
       ~hash:(fun _ -> 1) (* every key hashes to 1; bucket 0 unreachable *)
       ~key_len:5 ~bucket:0 4
   with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "message names the budget" true
        (contains ~sub:"budget exhausted after 1000 draws" msg);
      Alcotest.(check bool)
        "message names the bucket" true
        (contains ~sub:"bucket 0" msg));
  match
    Workload.Adversarial.colliding_flows rng ~budget:0 ~hash:(fun _ -> 0)
      ~key_len:5 ~bucket:0 1
  with
  | _ -> Alcotest.fail "expected Invalid_argument for budget < 1"
  | exception Invalid_argument msg ->
      Alcotest.(check bool)
        "non-positive budget rejected up front" true
        (contains ~sub:"budget < 1" msg)

let test_fill_collided_reaches_capacity () =
  let rng = Workload.Prng.create ~seed:22 in
  let alloc =
    Dslib.Port_alloc.array ~base:0x7b00_0000 ~port_lo:2000 ~port_hi:2127
  in
  let nat =
    Dslib.Nat_table.create ~base:0x7b10_0000 ~capacity:48 ~buckets:16
      ~timeout:1000 ~alloc ~port_lo:2000 ~port_hi:2127 ()
  in
  Workload.Adversarial.fill_nat_collided nat rng ~stamped_at:500;
  check_int "nat full" 48 (Dslib.Nat_table.size nat);
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  check_int "all expire in one storm" 48
    (Dslib.Nat_table.expire nat meter ~now:10_000);
  let mac =
    Dslib.Mac_table.create ~base:0x7b20_0000 ~capacity:40 ~buckets:8
      ~timeout:1000 ~threshold:100 ()
  in
  Workload.Adversarial.fill_mac_table_collided mac rng ~port:3 ~stamped_at:500;
  check_int "mac full" 40 (Dslib.Mac_table.size mac)

(* ---- Soak generators ------------------------------------------------------ *)

let test_soak_zipf_popularity () =
  let z = Workload.Soak.zipf ~n:1024 ~theta:1.0 in
  let rng = Workload.Prng.create ~seed:23 in
  let counts = Array.make 1024 0 in
  for _ = 1 to 20_000 do
    let r = Workload.Soak.zipf_draw z rng in
    check_bool "rank in range" true (r >= 0 && r < 1024);
    counts.(r) <- counts.(r) + 1
  done;
  (* rank 0 dominates and the tail is long but thin *)
  check_bool "head is hot" true (counts.(0) > 10 * counts.(100));
  check_bool "head share sane" true (counts.(0) < 10_000);
  (match Workload.Soak.zipf ~n:0 ~theta:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty universe accepted")

let test_soak_pareto_sizes () =
  let rng = Workload.Prng.create ~seed:24 in
  let total = ref 0 and mice = ref 0 in
  let n = 5_000 in
  for _ = 1 to n do
    let s = Workload.Soak.pareto_size rng ~alpha:1.3 ~lo:1 ~hi:1000 in
    check_bool "within bounds" true (s >= 1 && s <= 1000);
    total := !total + s;
    if s <= 10 then incr mice
  done;
  (* heavy tail: most flows are mice, yet the mean sits well above the
     median because elephants carry the volume *)
  check_bool "mostly mice" true (!mice > n / 2);
  check_bool "mean pulled up by elephants" true (!total / n >= 3)

let test_soak_flow_universe () =
  let idx = [ 0; 1; 255; 256; 65_535; 65_536; 1_000_000; (1 lsl 24) - 1 ] in
  let flows = List.map Workload.Soak.flow_of_index idx in
  check_int "distinct across octet boundaries" (List.length idx)
    (List.length (List.sort_uniq Net.Flow.compare flows));
  List.iter2
    (fun i f ->
      match Net.Flow.of_packet (Workload.Soak.packet_of_index i) with
      | Some f' -> check_bool "packet realizes the flow" true (Net.Flow.equal f f')
      | None -> Alcotest.fail "soak packet unparsable")
    idx flows;
  let churn = Workload.Soak.churn_packets ~offset:5_000 200 in
  check_int "churn chunk size" 200 (List.length churn);
  check_int "churn flows distinct" 200
    (List.filter_map Net.Flow.of_packet churn
    |> List.sort_uniq Net.Flow.compare |> List.length)

let test_soak_nat_collision_packets_realizable () =
  (* unlike [Adversarial.colliding_flows], these keys must survive the
     packet round-trip: 16-bit ports, real IPs — and still collide *)
  let rng = Workload.Prng.create ~seed:25 in
  let alloc =
    Dslib.Port_alloc.dll ~base:0x7c00_0000 ~port_lo:1000 ~port_hi:1063
  in
  let nat =
    Dslib.Nat_table.create ~base:0x7c10_0000 ~capacity:64 ~buckets:64
      ~timeout:1000 ~alloc ~port_lo:1000 ~port_hi:1063 ()
  in
  let flows = Workload.Soak.nat_collision_flows nat rng ~bucket:7 16 in
  check_int "count" 16 (List.length flows);
  check_int "distinct" 16
    (List.length (List.sort_uniq Net.Flow.compare flows));
  List.iter2
    (fun (f : Net.Flow.t) packet ->
      (match Net.Flow.of_packet packet with
      | Some f' -> check_bool "round-trips" true (Net.Flow.equal f f')
      | None -> Alcotest.fail "collision packet unparsable");
      let key =
        [| f.Net.Flow.src_ip; f.Net.Flow.dst_ip; f.Net.Flow.src_port;
           f.Net.Flow.dst_port; f.Net.Flow.proto |]
      in
      check_int "chains into bucket 7" 7 (Dslib.Nat_table.hash_of_flow nat key))
    flows
    (Workload.Soak.packets_of_flows flows)

let test_soak_lpm_attack_hits_tbl8 () =
  let ip = Net.Ipv4.addr_of_parts in
  let lpm = Dslib.Lpm_dir24_8.create ~base:0x7d00_0000 ~default_port:0 in
  Dslib.Lpm_dir24_8.add_route lpm ~prefix:(ip 10 0 0 0) ~len:16 ~port:1;
  Dslib.Lpm_dir24_8.add_route lpm ~prefix:(ip 93 184 216 0) ~len:28 ~port:2;
  let rng = Workload.Prng.create ~seed:26 in
  let pkts =
    Workload.Soak.lpm_attack_packets rng lpm ~slot:(ip 93 184 216 0) 64
  in
  check_int "count" 64 (List.length pkts);
  List.iter
    (fun p ->
      check_bool "forced onto the two-lookup path" true
        (Dslib.Lpm_dir24_8.uses_tbl8 lpm (Net.Ipv4.get_dst p)))
    pkts;
  (* aiming at a slot with no >24-bit route is a caller bug *)
  match Workload.Soak.lpm_attack_packets rng lpm ~slot:(ip 10 0 0 0) 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-extended slot accepted"

(* ---- Contract diff ----------------------------------------------------------- *)

let entry name cost =
  Perf.Contract.entry ~class_name:name cost

let vec ic =
  Perf.Cost_vec.make ~ic ~ma:(Perf.Perf_expr.const 1)
    ~cycles:(Perf.Perf_expr.const 1)

let test_contract_diff () =
  let e = Perf.Pcv.expired in
  let before =
    Perf.Contract.make ~nf:"x"
      [
        entry "A" (vec (Perf.Perf_expr.add_const 10 (Perf.Perf_expr.term 3 [ e ])));
        entry "B" (vec (Perf.Perf_expr.const 5));
      ]
  in
  let after =
    Perf.Contract.make ~nf:"x"
      [
        entry "A" (vec (Perf.Perf_expr.add_const 10 (Perf.Perf_expr.term 7 [ e ])));
        entry "C" (vec (Perf.Perf_expr.const 2));
      ]
  in
  let d = Perf.Contract_diff.diff before after in
  check_bool "not empty" false (Perf.Contract_diff.is_empty d);
  let kinds =
    List.map
      (function
        | Perf.Contract_diff.Added e -> "+" ^ e.Perf.Contract.class_name
        | Perf.Contract_diff.Removed e -> "-" ^ e.Perf.Contract.class_name
        | Perf.Contract_diff.Changed { class_name; _ } -> "~" ^ class_name)
      d
    |> List.sort String.compare
  in
  check_bool "changes" true (kinds = [ "+C"; "-B"; "~A" ]);
  check_int "regressions include growth and additions" 2
    (List.length (Perf.Contract_diff.regressions d));
  check_bool "identity diff empty" true
    (Perf.Contract_diff.is_empty (Perf.Contract_diff.diff before before))

(* ---- Sensitivity ---------------------------------------------------------------- *)

let test_sensitivity_sweep () =
  let l = Perf.Pcv.prefix_len in
  let cost =
    vec (Perf.Perf_expr.add_const 5 (Perf.Perf_expr.term 4 [ l ]))
  in
  let points =
    Distiller.Sensitivity.sweep ~cost ~metric:Perf.Metric.Instructions
      ~pcv:l ~base:[] ~lo:0 ~hi:4
      ~observed:[ 1; 1; 2; 3 ]
      ()
  in
  check_int "points" 5 (List.length points);
  let p2 = List.nth points 2 in
  check_int "bound at 2" 13 p2.Distiller.Sensitivity.bound;
  check_bool "share at 2" true
    (Float.abs (p2.Distiller.Sensitivity.traffic_share -. 0.25) < 1e-9);
  check_bool "knee at 99%" true
    (Distiller.Sensitivity.knee points ~threshold:0.99 = Some 3);
  check_bool "knee never reached on empty traffic" true
    (Distiller.Sensitivity.knee
       (Distiller.Sensitivity.sweep ~cost ~metric:Perf.Metric.Instructions
          ~pcv:l ~base:[] ~lo:0 ~hi:2 ())
       ~threshold:0.5
    = None)

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng ranges" `Quick test_prng_ranges;
    Alcotest.test_case "distinct flows" `Quick test_distinct_flows;
    Alcotest.test_case "packets parse back" `Quick test_packets_parse_back;
    Alcotest.test_case "churn stream" `Quick test_churn_stream;
    Alcotest.test_case "heartbeat frames" `Quick test_heartbeats;
    Alcotest.test_case "adversarial collisions" `Quick
      test_adversarial_collisions;
    Alcotest.test_case "synthesized mass expiry" `Quick
      test_fill_collided_then_mass_expiry;
    Alcotest.test_case "colliding flows hit any bucket" `Quick
      test_colliding_flows_arbitrary_bucket;
    Alcotest.test_case "colliding flows exhaustion is descriptive" `Quick
      test_colliding_flows_exhaustion;
    Alcotest.test_case "collided fills reach capacity" `Quick
      test_fill_collided_reaches_capacity;
    Alcotest.test_case "soak zipf popularity" `Quick test_soak_zipf_popularity;
    Alcotest.test_case "soak pareto sizes" `Quick test_soak_pareto_sizes;
    Alcotest.test_case "soak flow universe" `Quick test_soak_flow_universe;
    Alcotest.test_case "soak collision packets realizable" `Quick
      test_soak_nat_collision_packets_realizable;
    Alcotest.test_case "soak lpm attack hits tbl8" `Quick
      test_soak_lpm_attack_hits_tbl8;
    Alcotest.test_case "contract diff" `Quick test_contract_diff;
    Alcotest.test_case "sensitivity sweep" `Quick test_sensitivity_sweep;
    Alcotest.test_case "distinct flows rejects a negative count" `Quick
      test_distinct_flows_negative;
  ]
