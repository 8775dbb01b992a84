type params = { patho_capacity : int; flows : int; seed : int }

let default_params = { patho_capacity = 4096; flows = 512; seed = 7 }
let quick_params = { patho_capacity = 256; flows = 64; seed = 7 }
let t0 = 1_000_000

let key_of_flow (f : Net.Flow.t) =
  [| f.Net.Flow.src_ip; f.dst_ip; f.src_port; f.dst_port; f.proto |]

(* Flows whose keys land in pairwise-distinct buckets, so the typical
   scenarios really do avoid hash collisions (c = 0, t <= 1). *)
let distinct_bucket_flows rng ~hash n =
  let used = Hashtbl.create n in
  let rec draw acc k guard =
    if k = 0 then List.rev acc
    else if guard = 0 then failwith "distinct_bucket_flows: budget exhausted"
    else
      let f = Workload.Gen.flow rng () in
      let b = hash (key_of_flow f) in
      if Hashtbl.mem used b then draw acc k (guard - 1)
      else begin
        Hashtbl.add used b ();
        draw (f :: acc) (k - 1) (guard - 1)
      end
  in
  draw [] n 10_000_000

let analyze_nf ?jobs program contracts =
  Bolt.Pipeline.analyze
    ~config:{ Bolt.Pipeline.Config.default with contracts; jobs }
    program

let find_class classes name =
  List.find (fun c -> c.Symbex.Iclass.name = name) classes

(* A fully constructed scenario, ready to measure.  Building a spec does
   all the RNG-dependent work — flow draws, adversarial state filling,
   stream construction — so specs must be built serially, in a fixed
   order; measuring touches only the spec's own [dss] (and the
   domain-safe solver cache through [predict]), so specs can be measured
   on any domain. *)
type spec = {
  label : string;
  pipeline : Bolt.Pipeline.t;
  classes : Symbex.Iclass.t list;
  dss : Exec.Ds.env;
  program : Ir.Program.t;
  warmup : Workload.Stream.t;
  measured : Workload.Stream.t;
}

let measure_spec s =
  Obs.Span.with_ ~cat:"scenario" "measure"
    ~args:(fun () -> [ ("scenario", s.label) ])
  @@ fun () ->
  {
    Harness.label = s.label;
    predicted = Harness.predict_exn s.pipeline (find_class s.classes s.label);
    measured = Harness.measure ~dss:s.dss s.program ~warmup:s.warmup
        ~measured:s.measured;
  }

let c_measured = Obs.Metrics.counter "scenarios.specs_measured"

let measure_specs ?jobs specs =
  let rows = Exec.Pool.map ?jobs measure_spec specs in
  Obs.Metrics.add c_measured (List.length rows);
  rows

(* ---- NAT -------------------------------------------------------------- *)

let nat_specs ?(params = default_params) ?jobs () =
  let program = Nf.Nat.program in
  let pipeline = analyze_nf ?jobs program (Nf.Nat.contracts ()) in
  let cfg = Nf.Nat.default_config in
  let classes = Nf.Nat.classes ~config:cfg () in
  let rng = Workload.Prng.create ~seed:params.seed in
  let fresh_nat () = Nf.Nat.setup ~config:cfg (Dslib.Layout.allocator ()) in
  (* NAT2: each distinct-bucket flow seen once *)
  let nat2 =
    let dss, nat = fresh_nat () in
    let flows =
      distinct_bucket_flows rng ~hash:(Dslib.Nat_table.hash_of_flow nat)
        params.flows
    in
    let measured =
      Workload.Stream.constant_rate ~in_port:0 ~start:t0 ~gap:100
        (Workload.Gen.packets_of_flows flows)
    in
    { label = "NAT2"; pipeline; classes; dss; program; warmup = []; measured }
  in
  (* NAT3: the same flows re-sent within the timeout *)
  let nat3 =
    let dss, nat = fresh_nat () in
    let flows =
      distinct_bucket_flows rng ~hash:(Dslib.Nat_table.hash_of_flow nat)
        params.flows
    in
    let packets () = Workload.Gen.packets_of_flows flows in
    let warmup =
      Workload.Stream.constant_rate ~in_port:0 ~start:t0 ~gap:100 (packets ())
    in
    let measured =
      Workload.Stream.constant_rate ~in_port:0 ~start:(t0 + 500_000)
        ~gap:100 (packets ())
    in
    { label = "NAT3"; pipeline; classes; dss; program; warmup; measured }
  in
  (* NAT4: external packets towards unmapped ports *)
  let nat4 =
    let dss, _ = fresh_nat () in
    let packets =
      List.init params.flows (fun i ->
          Net.Build.udp
            ~src_ip:(Net.Ipv4.addr_of_parts 93 184 0 (i land 0xff))
            ~dst_ip:Nf.Nat.external_ip
            ~src_port:(2000 + i)
            ~dst_port:(50_000 + (i mod 10_000))
            ())
    in
    let measured =
      Workload.Stream.constant_rate ~in_port:1 ~start:t0 ~gap:100 packets
    in
    { label = "NAT4"; pipeline; classes; dss; program; warmup = []; measured }
  in
  (* NAT1: synthesized mass-expiry state, one trigger packet *)
  let nat1 =
    let patho_cfg =
      {
        cfg with
        Nf.Nat.capacity = params.patho_capacity;
        buckets = params.patho_capacity;
        port_lo = 1024;
        port_hi = 1024 + (2 * params.patho_capacity);
      }
    in
    let patho_classes = Nf.Nat.classes ~config:patho_cfg () in
    let dss, nat = Nf.Nat.setup ~config:patho_cfg (Dslib.Layout.allocator ()) in
    Workload.Adversarial.fill_nat_collided nat rng ~stamped_at:t0;
    let trigger = Workload.Adversarial.trigger_packet () in
    let measured =
      [
        {
          Workload.Stream.packet = trigger;
          now = t0 + patho_cfg.Nf.Nat.timeout + patho_cfg.Nf.Nat.granularity + 1;
          in_port = 0;
        };
      ]
    in
    { label = "NAT1"; pipeline; classes = patho_classes; dss; program;
      warmup = []; measured }
  in
  [ nat1; nat2; nat3; nat4 ]

let nat_rows ?params ?jobs () = measure_specs ?jobs (nat_specs ?params ?jobs ())

(* ---- Bridge ------------------------------------------------------------ *)

let bridge_specs ?(params = default_params) ?jobs () =
  let program = Nf.Bridge.program in
  let pipeline = analyze_nf ?jobs program (Nf.Bridge.contracts ()) in
  let cfg = Nf.Bridge.default_config in
  let classes = Nf.Bridge.classes ~config:cfg () in
  let rng = Workload.Prng.create ~seed:(params.seed + 1) in
  let distinct_macs table n =
    let used = Hashtbl.create n in
    let rec draw acc k guard =
      if k = 0 then List.rev acc
      else if guard = 0 then failwith "distinct_macs: budget exhausted"
      else
        let mac = Workload.Gen.mac rng in
        let b = Dslib.Mac_table.hash_of_mac table mac in
        if Hashtbl.mem used b then draw acc k (guard - 1)
        else begin
          Hashtbl.add used b ();
          draw (mac :: acc) (k - 1) (guard - 1)
        end
    in
    draw [] n 10_000_000
  in
  let br2 =
    let dss, table = Nf.Bridge.setup ~config:cfg (Dslib.Layout.allocator ()) in
    let srcs = distinct_macs table params.flows in
    let frames () = Workload.Gen.broadcast_frames rng ~srcs params.flows in
    let warmup =
      Workload.Stream.constant_rate ~in_port:0 ~start:t0 ~gap:100 (frames ())
    in
    let measured =
      Workload.Stream.constant_rate ~in_port:0 ~start:(t0 + 500_000) ~gap:100
        (frames ())
    in
    { label = "Br2"; pipeline; classes; dss; program; warmup; measured }
  in
  let br3 =
    let dss, table = Nf.Bridge.setup ~config:cfg (Dslib.Layout.allocator ()) in
    let macs = distinct_macs table (2 * params.flows) in
    let srcs = List.filteri (fun i _ -> i mod 2 = 0) macs in
    let dsts = List.filteri (fun i _ -> i mod 2 = 1) macs in
    (* teach the bridge both sides: sources on port 0, destinations on
       port 1 *)
    let learn_srcs = Workload.Gen.broadcast_frames rng ~srcs params.flows in
    let learn_dsts = Workload.Gen.broadcast_frames rng ~srcs:dsts params.flows in
    let warmup =
      Workload.Stream.constant_rate ~in_port:0 ~start:t0 ~gap:100 learn_srcs
      @ Workload.Stream.constant_rate ~in_port:1 ~start:(t0 + 200_000)
          ~gap:100 learn_dsts
    in
    let measured =
      Workload.Stream.constant_rate ~in_port:0 ~start:(t0 + 500_000) ~gap:100
        (Workload.Gen.unicast_frames rng ~srcs ~dsts params.flows)
    in
    { label = "Br3"; pipeline; classes; dss; program; warmup; measured }
  in
  let br1 =
    let patho_cfg =
      {
        cfg with
        Nf.Bridge.capacity = params.patho_capacity;
        buckets = params.patho_capacity;
      }
    in
    let patho_classes = Nf.Bridge.classes ~config:patho_cfg () in
    let dss, table =
      Nf.Bridge.setup ~config:patho_cfg (Dslib.Layout.allocator ())
    in
    Workload.Adversarial.fill_mac_table_collided table rng ~port:1
      ~stamped_at:t0;
    let trigger =
      Net.Build.eth
        ~src_mac:(Workload.Gen.mac rng)
        ~dst_mac:(Workload.Gen.mac rng)
        ~ethertype:Net.Ethernet.ethertype_ipv4 ()
    in
    let measured =
      [
        {
          Workload.Stream.packet = trigger;
          now = t0 + patho_cfg.Nf.Bridge.timeout + 1;
          in_port = 0;
        };
      ]
    in
    { label = "Br1"; pipeline; classes = patho_classes; dss; program;
      warmup = []; measured }
  in
  [ br1; br2; br3 ]

let bridge_rows ?params ?jobs () =
  measure_specs ?jobs (bridge_specs ?params ?jobs ())

(* ---- Load balancer ------------------------------------------------------ *)

let lb_specs ?(params = default_params) ?jobs () =
  let program = Nf.Maglev.program in
  let pipeline = analyze_nf ?jobs program (Nf.Maglev.contracts ()) in
  let cfg = Nf.Maglev.default_config in
  let classes = Nf.Maglev.classes ~config:cfg () in
  let rng = Workload.Prng.create ~seed:(params.seed + 2) in
  let backend_ids = List.init cfg.Nf.Maglev.backend_count (fun b -> b) in
  let heartbeats ~start =
    Workload.Stream.constant_rate ~in_port:1 ~start ~gap:10
      (Workload.Gen.heartbeat_frames ~backend_ids
         ~port:Nf.Maglev.heartbeat_port)
  in
  let fresh () = Nf.Maglev.setup ~config:cfg (Dslib.Layout.allocator ()) in
  let flows_for state n =
    distinct_bucket_flows rng
      ~hash:(Dslib.Flow_table.hash_of_key state.Nf.Maglev.flow_table)
      n
  in
  let lb5 =
    let dss, _ = fresh () in
    { label = "LB5"; pipeline; classes; dss; program;
      warmup = heartbeats ~start:t0;
      measured = heartbeats ~start:(t0 + 100_000) }
  in
  let lb2 =
    let dss, state = fresh () in
    let flows = flows_for state params.flows in
    let measured =
      Workload.Stream.constant_rate ~in_port:0 ~start:(t0 + 100_000) ~gap:100
        (Workload.Gen.packets_of_flows flows)
    in
    { label = "LB2"; pipeline; classes; dss; program;
      warmup = heartbeats ~start:t0; measured }
  in
  let lb4 =
    let dss, state = fresh () in
    let flows = flows_for state params.flows in
    let packets () = Workload.Gen.packets_of_flows flows in
    let warmup =
      heartbeats ~start:t0
      @ Workload.Stream.constant_rate ~in_port:0 ~start:(t0 + 100_000)
          ~gap:100 (packets ())
    in
    let measured =
      Workload.Stream.constant_rate ~in_port:0 ~start:(t0 + 1_000_000)
        ~gap:100 (packets ())
    in
    { label = "LB4"; pipeline; classes; dss; program; warmup; measured }
  in
  let lb3 =
    let dss, state = fresh () in
    let flows = flows_for state params.flows in
    let packets () = Workload.Gen.packets_of_flows flows in
    let warmup =
      heartbeats ~start:t0
      @ Workload.Stream.constant_rate ~in_port:0 ~start:(t0 + 100_000)
          ~gap:100 (packets ())
    in
    (* measured beyond the backend timeout (no fresh heartbeats), within
       the flow timeout *)
    let measured =
      Workload.Stream.constant_rate ~in_port:0
        ~start:(t0 + 100_000 + cfg.Nf.Maglev.backend_timeout + 100_000)
        ~gap:100 (packets ())
    in
    { label = "LB3"; pipeline; classes; dss; program; warmup; measured }
  in
  let lb1 =
    let patho_cfg =
      {
        cfg with
        Nf.Maglev.capacity = params.patho_capacity;
        buckets = params.patho_capacity;
      }
    in
    let patho_classes = Nf.Maglev.classes ~config:patho_cfg () in
    let dss, state =
      Nf.Maglev.setup ~config:patho_cfg (Dslib.Layout.allocator ())
    in
    Workload.Adversarial.fill_flow_table_collided state.Nf.Maglev.flow_table
      rng ~value:0 ~stamped_at:t0;
    let measured =
      [
        {
          Workload.Stream.packet = Workload.Adversarial.trigger_packet ();
          now = t0 + patho_cfg.Nf.Maglev.timeout + 1;
          in_port = 0;
        };
      ]
    in
    { label = "LB1"; pipeline; classes = patho_classes; dss; program;
      warmup = []; measured }
  in
  [ lb1; lb2; lb3; lb4; lb5 ]

let lb_rows ?params ?jobs () = measure_specs ?jobs (lb_specs ?params ?jobs ())

(* ---- LPM router ---------------------------------------------------------- *)

let lpm_routes =
  (* a mix of short and long prefixes, so both tiers are populated *)
  List.init 64 (fun i ->
      (Net.Ipv4.addr_of_parts (i + 16) 0 0 0, 16, (i mod 4) + 1))
  @ List.init 32 (fun i ->
        (Net.Ipv4.addr_of_parts 100 1 i 128, 28, (i mod 4) + 1))

let lpm_specs ?(params = default_params) ?jobs () =
  let program = Nf.Router.program `Dir24_8 in
  let pipeline = analyze_nf ?jobs program (Nf.Router.contracts `Dir24_8) in
  let classes = Nf.Router.classes `Dir24_8 in
  let rng = Workload.Prng.create ~seed:(params.seed + 3) in
  let make label long =
    let dss, lpm =
      Nf.Router.setup `Dir24_8 (Dslib.Layout.allocator ()) ~routes:lpm_routes
    in
    let lpm =
      match lpm.Dslib.Backends.Lpm.repr with
      | Dslib.Backends.Lpm.Dir24_8 t -> t
      | Dslib.Backends.Lpm.Trie _ -> assert false
    in
    let packets =
      Workload.Gen.lpm_destinations rng lpm ~long params.flows
    in
    let measured =
      Workload.Stream.constant_rate ~in_port:0 ~start:t0 ~gap:100 packets
    in
    { label; pipeline; classes; dss; program; warmup = []; measured }
  in
  [ make "LPM1" true; make "LPM2" false ]

let lpm_rows ?params ?jobs () =
  measure_specs ?jobs (lpm_specs ?params ?jobs ())

(* ---- Conntrack firewall (extension NF) --------------------------------- *)

let conntrack_specs ?(params = default_params) ?jobs () =
  let program = Nf.Conntrack.program in
  let pipeline = analyze_nf ?jobs program (Nf.Conntrack.contracts ()) in
  let cfg = Nf.Conntrack.default_config in
  let classes = Nf.Conntrack.classes ~config:cfg () in
  let rng = Workload.Prng.create ~seed:(params.seed + 4) in
  let fresh () = Nf.Conntrack.setup ~config:cfg (Dslib.Layout.allocator ()) in
  let flows_for ft n =
    distinct_bucket_flows rng ~hash:(Dslib.Flow_table.hash_of_key ft) n
  in
  let outbound start flows =
    Workload.Stream.constant_rate ~in_port:0 ~start ~gap:100
      (Workload.Gen.packets_of_flows flows)
  in
  let inbound start flows =
    Workload.Stream.constant_rate ~in_port:1 ~start ~gap:100
      (Workload.Gen.packets_of_flows
         (List.map Net.Flow.reverse flows))
  in
  let ct2 =
    let dss, ft = fresh () in
    let flows = flows_for ft params.flows in
    { label = "CT2"; pipeline; classes; dss; program; warmup = [];
      measured = outbound t0 flows }
  in
  let ct3 =
    let dss, ft = fresh () in
    let flows = flows_for ft params.flows in
    { label = "CT3"; pipeline; classes; dss; program;
      warmup = outbound t0 flows;
      measured = outbound (t0 + 500_000) flows }
  in
  let ct4 =
    let dss, ft = fresh () in
    let flows = flows_for ft params.flows in
    { label = "CT4"; pipeline; classes; dss; program;
      warmup = outbound t0 flows;
      measured = inbound (t0 + 500_000) flows }
  in
  let ct5 =
    let dss, ft = fresh () in
    let flows = flows_for ft params.flows in
    { label = "CT5"; pipeline; classes; dss; program; warmup = [];
      measured = inbound t0 flows }
  in
  let ct1 =
    let patho_cfg =
      {
        cfg with
        Nf.Conntrack.capacity = params.patho_capacity;
        buckets = params.patho_capacity;
      }
    in
    let patho_classes = Nf.Conntrack.classes ~config:patho_cfg () in
    let dss, ft =
      Nf.Conntrack.setup ~config:patho_cfg (Dslib.Layout.allocator ())
    in
    Workload.Adversarial.fill_flow_table_collided ft rng ~value:1
      ~stamped_at:t0;
    let measured =
      [
        {
          Workload.Stream.packet = Workload.Adversarial.trigger_packet ();
          now = t0 + patho_cfg.Nf.Conntrack.timeout + 1;
          in_port = 0;
        };
      ]
    in
    { label = "CT1"; pipeline; classes = patho_classes; dss; program;
      warmup = []; measured }
  in
  [ ct1; ct2; ct3; ct4; ct5 ]

let conntrack_rows ?params ?jobs () =
  measure_specs ?jobs (conntrack_specs ?params ?jobs ())

(* ---- All 14 rows --------------------------------------------------------- *)

let figure1_table3 ?(params = default_params) ?jobs () =
  (* Each group draws from its own seeded PRNG, so the groups can be
     *built* concurrently; within a group construction stays serial to
     preserve the PRNG stream.  Measurement then fans all 14 specs out
     at once — it is the bulk of the wall-clock and touches no RNG. *)
  let groups =
    [
      ("nat", fun () -> nat_specs ~params ?jobs ());
      ("bridge", fun () -> bridge_specs ~params ?jobs ());
      ("lb", fun () -> lb_specs ~params ?jobs ());
      ("lpm", fun () -> lpm_specs ~params ?jobs ());
    ]
  in
  let build (name, g) =
    Obs.Span.with_ ~cat:"scenario" "build"
      ~args:(fun () -> [ ("group", name) ])
      g
  in
  let specs = List.concat (Exec.Pool.map ?jobs build groups) in
  measure_specs ?jobs specs
