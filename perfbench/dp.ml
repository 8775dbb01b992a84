(* The dataplane workloads: the NAT on a 1-shard engine, fed a generated
   stream replayed as a closed loop with one client through
   [Dataplane.Shard.drain], one fixed-size batch at a time. *)

open Measure

let batch = 256 (* about one RX burst; the same on every dataplane workload *)
let stream_packets = 65_536
let gap = 100
let start = 1_000_000

type workload = {
  name : string;
  config : Nf.Nat.config;
  packets : seed:int -> Net.Packet.t list;
}

let spec wl = Nf.Spec.Nat wl.config

(* The soak's small NAT: 1,024 entries and a timeout of 1,024 packets of
   stream time, so a churning stream expires one mapping per packet. *)
let nat_soak =
  {
    Nf.Nat.default_config with
    capacity = 1024;
    buckets = 1024;
    timeout = 1024 * gap;
    granularity = gap;
    port_lo = 1024;
    port_hi = 3071;
  }

let nat_zipf =
  {
    name = "nat_zipf";
    config = Nf.Nat.default_config;
    packets =
      (fun ~seed ->
        let z =
          Workload.Soak.zipf ~n:Nf.Nat.default_config.Nf.Nat.capacity ~theta:0.99
        in
        Workload.Soak.zipf_packets (Workload.Prng.create ~seed) z stream_packets);
  }

let nat_churn =
  {
    name = "nat_churn";
    config = nat_soak;
    packets =
      (fun ~seed ->
        (* flow indices stay below 2^24, where the universe is distinct *)
        Workload.Soak.churn_packets
          ~offset:(seed land 0xff * stream_packets)
          stream_packets);
  }

let all = [ nat_zipf; nat_churn ]

type engine = {
  base : Net.Packet.t array;  (** the generated packets; never mutated *)
  shard : Dataplane.Shard.t;
}

(* Stream generation and engine construction.  One shard: no worker
   domain to spawn. *)
let setup wl ~seed =
  let base = Array.of_list (wl.packets ~seed) in
  { base; shard = Dataplane.Shard.create (Dataplane.Plan.make ~shards:1 (spec wl)) }

(* Stream index and clock of packet [j] of batch [k].  The stream repeats
   every [stream_packets] packets with its clock moved on, so time only
   moves forward. *)
let slot e k j =
  let m = Array.length e.base in
  let i = (k mod (m / batch) * batch) + j in
  (i, start + (gap * ((k / (m / batch) * m) + i)))

let entries e k =
  List.init batch (fun j ->
      let i, now = slot e k j in
      { Workload.Stream.packet = e.base.(i); now; in_port = 0 })

let drain e b = ignore (Dataplane.Shard.drain e.shard b : float)

(* The closed loop: the next batch goes in only after the previous one
   returns.  With [traced], odd batches run inside a span, so traced and
   untraced batches interleave over the same interval.  Returns the next
   batch index. *)
let closed_loop e ~first ~until ~traced ~plain ~spanned =
  let k = ref first in
  while now () < until do
    let b = entries e !k in
    let on = traced && !k land 1 = 1 in
    let t0 = now () in
    if on then span "Dataplane.Shard.drain" (fun () -> drain e b) else drain e b;
    let dt = now () -. t0 in
    Samples.add (if on then spanned else plain) (dt *. 1e6);
    incr k
  done;
  !k

(* ---- Correctness ------------------------------------------------------- *)

let fresh_head e n =
  List.init n (fun i ->
      let i, now = slot e 0 i in
      { Workload.Stream.packet = Net.Packet.copy e.base.(i); now; in_port = 0 })

(* Specialized vs interpreter on the stream head: outcome, costs, PCV
   observations and packet bytes must agree exactly. *)
let parity checks wl e =
  let entry = Nf.Registry.of_spec (spec wl) in
  let replay exec =
    List.map
      (fun (s : Workload.Stream.entry) ->
        let r = exec ~in_port:s.in_port ~now:s.now s.packet in
        (r, Net.Packet.to_bytes s.packet))
      (fresh_head e batch)
  in
  let interp =
    let meter = Exec.Meter.create (Hw.Model.null ()) in
    let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
    replay (fun ~in_port ~now packet ->
        Exec.Meter.reset_observations meter;
        let r =
          Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss) ~in_port ~now
            entry.Nf.Registry.program packet
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
  List.iteri
    (fun i (a, b) ->
      check checks
        ~what:(Printf.sprintf "%s: specialized != interpreter at packet %d" wl.name i)
        (a = b))
    (List.combine interp spec)

let head_len = 2048

(* Replays of the stream head: on 1 shard every packet is translated and
   forwarded (no operation fails); on a 2-shard parallel engine each
   packet's outcome and egress port equal the 1-shard reference (not its
   bytes: the shards translate from disjoint port slices). *)
let replay_checks checks wl e =
  let head = fresh_head e head_len in
  let replay ~shards =
    Dataplane.Shard.with_engine (Dataplane.Plan.make ~shards (spec wl)) (fun s ->
        Dataplane.Shard.replay ~parallel:true s head)
  in
  let reference = replay ~shards:1 in
  Array.iter
    (fun (r : Dataplane.Shard.result) ->
      check checks
        ~what:(Printf.sprintf "%s: packet %d not forwarded" wl.name r.index)
        (r.outcome = Exec.Interp.Sent 1))
    reference;
  tally checks ~what:(wl.name ^ " 2 shards vs 1") ~attempted:head_len
    (Dataplane.Oracle.equivalence ~strict_bytes:false ~nf:(Nf.Spec.name (spec wl))
       reference (replay ~shards:2))

(* Contract soundness on a slice of the stream: every packet's measured
   IC and MA within the worst case at its own PCVs. *)
let soundness checks wl e ~worst =
  let entry = Nf.Registry.of_spec (spec wl) in
  let r =
    Experiments.Validate.run ~worst
      ~dss:(entry.Nf.Registry.setup (Dslib.Layout.allocator ()))
      entry.Nf.Registry.program (fresh_head e head_len)
  in
  tally checks ~what:(wl.name ^ " contract soundness")
    ~attempted:(2 * r.Experiments.Validate.packets) (* IC and MA *)
    (List.map
       (fun (v : Experiments.Validate.violation) ->
         Fmt.str "packet %d: %a bound %d < measured %d" v.packet_index Perf.Metric.pp
           v.metric v.bound v.measured)
       r.Experiments.Validate.violations)

(* ---- Layer probes (traced run) ----------------------------------------- *)

(* A replica runner fed the engine's batch sequence from outside, a bare
   NAT table driven through its fast paths by the NF's own sequence of
   table calls, and a 2-shard plan steering the same packets: the
   steering pass a 2-shard engine would run (the 1-shard engine skips
   it). *)
type probe = {
  sp : Exec.Specialize.t;
  meter : Exec.Meter.t;
  steer_plan : Dataplane.Plan.t;
  table : Dslib.Nat_table.t;
  sink : Exec.Ds.sink;
  keys : int array array;  (** each stream packet's flow key *)
  worst : Perf.Cost_vec.t;
  pcvs : Perf.Pcv.t list;
  mutable timed : int;  (** packets through the timed layer spans *)
  mutable steer_words : float;
  mutable exec_words : float;
  mutable replayed : int;  (** packets through the table replica *)
  mutable new_flows : int;
  mutable observed : int;  (** packets through the PCV pass *)
  mutable drops : int;
  mutable traversals : int;
  mutable expired : int;
  mutable collisions : int;
  mutable cycles : int;
}

(* A sink that counts charges and prices nothing, like a null meter. *)
let null_sink () =
  let counts = Array.make (Hw.Cost.nkinds + 1) 0 in
  {
    Exec.Ds.s_counts = counts;
    s_mem =
      (fun ~addr:_ ~write:_ ~dependent:_ ->
        counts.(Hw.Cost.nkinds) <- counts.(Hw.Cost.nkinds) + 1);
    s_mem_batched = true;
    s_meter = Exec.Meter.create (Hw.Model.null ());
  }

let probe wl e ~worst =
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let sp, _ = Nf.Registry.specialize (Nf.Registry.of_spec (spec wl)) ~meter in
  let _, table = Nf.Nat.setup ~config:wl.config (Dslib.Layout.allocator ()) in
  let key p =
    match Net.Flow.of_packet p with
    | Some f -> Net.Flow.[| f.src_ip; f.dst_ip; f.src_port; f.dst_port; f.proto |]
    | None -> invalid_arg "perfbench: NAT stream packet without a flow"
  in
  {
    sp; meter; table; worst;
    steer_plan = Dataplane.Plan.make ~shards:2 (spec wl);
    sink = null_sink ();
    keys = Array.map key e.base;
    pcvs = List.sort_uniq Perf.Pcv.compare (Perf.Cost_vec.pcvs worst);
    timed = 0; steer_words = 0.; exec_words = 0.; replayed = 0; new_flows = 0;
    observed = 0; drops = 0; traversals = 0; expired = 0; collisions = 0; cycles = 0;
  }

(* Minor words allocated by [f], less the cost of reading the counter. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  w1 -. w0 -. (w2 -. w1)

(* Each batch copied, steered (2 shards) and executed in turn, with one
   span per layer and batch. *)
let timed_batches p e ks =
  let plan = p.steer_plan and sp = p.sp and meter = p.meter in
  List.iter
    (fun k ->
      let slots = Array.init batch (slot e k) in
      let pkts =
        span "Net.Packet.copy" (fun () ->
            Array.map (fun (i, _) -> Net.Packet.copy e.base.(i)) slots)
      in
      p.steer_words <-
        p.steer_words
        +. span "Dataplane.Plan.steer" (fun () ->
               words (fun () ->
                   for j = 0 to batch - 1 do
                     ignore (Sys.opaque_identity (Dataplane.Plan.steer plan ~in_port:0 pkts.(j)))
                   done));
      p.exec_words <-
        p.exec_words
        +. span "Exec.Specialize.exec" (fun () ->
               words (fun () ->
                   for j = 0 to batch - 1 do
                     Exec.Meter.reset_observations meter;
                     ignore (Exec.Specialize.exec sp ~in_port:0 ~now:(snd slots.(j)) pkts.(j) : int)
                   done));
      p.timed <- p.timed + batch)
    ks

let max_obs obs pcv =
  List.fold_left (fun acc (q, v) -> if Perf.Pcv.equal q pcv then max acc v else acc) 0 obs

(* The same runner through [run], untimed: each packet's outcome, PCV
   observations and contract cycles at those PCVs. *)
let pcv_batches p e ks ~record =
  List.iter
    (fun k ->
      for j = 0 to batch - 1 do
        let i, now = slot e k j in
        Exec.Meter.reset_observations p.meter;
        let r = Exec.Specialize.run p.sp ~in_port:0 ~now (Net.Packet.copy e.base.(i)) in
        if record then begin
          let obs = Exec.Meter.observations p.meter in
          if r.Exec.Interp.outcome = Exec.Interp.Dropped then p.drops <- p.drops + 1;
          p.traversals <- p.traversals + max_obs obs Perf.Pcv.traversals;
          p.expired <- p.expired + max_obs obs Perf.Pcv.expired;
          p.collisions <- p.collisions + max_obs obs Perf.Pcv.collisions;
          let binding = List.map (fun pcv -> (pcv, max_obs obs pcv)) p.pcvs in
          p.cycles <- p.cycles + Perf.Cost_vec.eval_exn binding p.worst Perf.Metric.Cycles
        end
      done;
      if record then p.observed <- p.observed + batch)
    ks

(* The NAT's table calls for each packet — expire, lookup, insert on a
   miss — on the bare table replica. *)
let nat_batches p e ks ~record =
  let t = p.table and sink = p.sink and keys = p.keys in
  List.iter
    (fun k ->
      let slots = Array.init batch (slot e k) in
      let replay () =
        let fresh = ref 0 in
        for j = 0 to batch - 1 do
          let i, now = slots.(j) in
          Exec.Meter.reset_observations sink.Exec.Ds.s_meter;
          ignore (Dslib.Nat_table.fast_expire t sink ~now : int);
          if Dslib.Nat_table.fast_lookup_int t sink keys.(i) ~off:0 ~now < 0 then begin
            incr fresh;
            ignore (Dslib.Nat_table.fast_add_int t sink keys.(i) ~off:0 ~now : int)
          end
        done;
        !fresh
      in
      if record then begin
        p.new_flows <- p.new_flows + span "Dslib.Nat_table" replay;
        p.replayed <- p.replayed + batch
      end
      else ignore (replay () : int))
    ks

(* Chunks of consecutive batches alternate between the timed layers and
   the PCV pass on the one replica runner; the table replica takes every
   chunk.  Replicas touch their own state once per chunk, so none is
   evicted from the cache by another more than once per chunk. *)
let chunk = 64

let probe_layers p e ~first ~until =
  let ks c = List.init chunk (fun i -> first + (c * chunk) + i) in
  let warm = stream_packets / batch / chunk in
  for c = 0 to warm - 1 do
    pcv_batches p e (ks c) ~record:false;
    nat_batches p e (ks c) ~record:false
  done;
  let c = ref warm in
  while now () < until || !c < warm + 2 do
    if (!c - warm) land 1 = 0 then timed_batches p e (ks !c)
    else pcv_batches p e (ks !c) ~record:true;
    nat_batches p e (ks !c) ~record:true;
    incr c
  done

(* ---- The workload ------------------------------------------------------ *)

let rounds = 16
let derive_min = 4

(* The NF's own derivations run on one domain, like the loop.  At the
   default width each spawns a second domain, and on a shared 2-vCPU host
   (Xeon, 2.0 GHz) their times then follow the neighbours' load on the
   other vCPU: IQR over median 0.20-0.24 across seeds, against 0.05-0.13
   on one domain. *)
let derive_jobs = 1

let run wl ~seed ~seconds ~traced ~effective_cores =
  let checks = Measure.checks () in
  let target = Derive.Nf (Nf.Spec.name (spec wl), Nf.Registry.of_spec (spec wl)) in
  let expected = Derive.read_file (Derive.expected_path target) in
  let worst = (Derive.run ~jobs:derive_jobs target).Derive.worst in
  let setup_s = Samples.create () in
  let e, dt = timed (fun () -> setup wl ~seed) in
  Samples.add setup_s dt;
  parity checks wl e;
  replay_checks checks wl e;
  soundness checks wl e ~worst;
  (* warm-up: one pass of the stream fills the table *)
  let nb = stream_packets / batch in
  for k = 0 to nb - 1 do
    drain e (entries e k)
  done;
  (* Rounds of the closed loop alternate with a set-up and
     program-to-contract derivations of the same NF, so every metric
     samples the whole run. *)
  let plain = Samples.create () and spanned = Samples.create () in
  let dstats = Derive.stats () in
  let loop_s = (if traced then 0.45 else 0.8) *. seconds /. float_of_int rounds in
  let derive_s = 0.2 *. seconds /. float_of_int rounds in
  let next = ref nb and last = ref None in
  for _ = 1 to rounds do
    next := closed_loop e ~first:!next ~until:(now () +. loop_s) ~traced ~plain ~spanned;
    Samples.add setup_s (snd (timed (fun () -> setup wl ~seed)));
    let n0 = Samples.count dstats.Derive.ms and until = now () +. derive_s in
    while Samples.count dstats.Derive.ms - n0 < derive_min || now () < until do
      last := Some (Derive.timed ~jobs:derive_jobs dstats checks ~expected target)
    done
  done;
  let metrics, info =
    end_to_end checks ~batch_packets:batch ~batches:plain
      ~contract_ms:(Derive.fast_ms dstats) ~all_contract_ms:dstats.Derive.ms ~setups:setup_s
  in
  if not traced then (checks, metrics, info)
  else begin
    (* the probes continue the loop's batch sequence, so their clocks
       never jump *)
    let p = probe wl e ~worst in
    probe_layers p e ~first:!next ~until:(now () +. (0.3 *. seconds));
    let wake_join = Probe.wake_join_us ~calls:2000 in
    let pool_map = Probe.pool_map_us ~calls:50 in
    let per n x = float_of_int x /. float_of_int (max 1 n) in
    let ns_per_pkt n name = per n (fst (span_total name)) *. 1e3 in
    let copy = ns_per_pkt p.timed "Net.Packet.copy"
    and exec = ns_per_pkt p.timed "Exec.Specialize.exec" in
    let cycles = per p.observed p.cycles in
    let hist =
      Dataplane.Shard.load_histogram p.steer_plan
        (List.concat (List.init nb (entries e)))
    in
    let skew =
      let mx = Array.fold_left max 0 hist and sum = Array.fold_left ( + ) 0 hist in
      100. *. float_of_int (mx * Array.length hist) /. float_of_int sum
    in
    let d = Option.get !last in
    (* a 1-shard drain copies and executes each packet; it does not steer *)
    let covered_us = float_of_int batch *. (copy +. exec) /. 1e3 in
    ( checks,
      complete per_layer_units
        (Derive.phase_metrics ()
        @ [
            ("effective_cores", effective_cores);
            ("steer_ns_per_pkt", ns_per_pkt p.timed "Dataplane.Plan.steer");
            ("steer_alloc_words_per_pkt", p.steer_words /. float_of_int p.timed);
            ("skew_pct", skew);
            ("wake_join_us", wake_join);
            ("pool_map_us", pool_map);
            ("copy_ns_per_pkt", copy);
            ("exec_ns_per_pkt", exec);
            ("exec_alloc_words_per_pkt", p.exec_words /. float_of_int p.timed);
            ("dslib_ns_per_pkt", ns_per_pkt p.replayed "Dslib.Nat_table");
            ("new_flow_frac", per p.replayed p.new_flows);
            ("drop_frac", per p.observed p.drops);
            ("pcv_traversals_mean", per p.observed p.traversals);
            ("pcv_expired_mean", per p.observed p.expired);
            ("pcv_collisions_mean", per p.observed p.collisions);
            ("contract_cycles_per_pkt", cycles);
            ("ns_per_contract_cycle", exec /. cycles);
            ("paths", float_of_int d.Derive.paths);
            ("forks_pruned", float_of_int d.Derive.pruned);
            ("solver_cache_hit_frac", Derive.hit_frac dstats);
            ("unattributed_frac", 1. -. (covered_us /. Samples.quantile plain 0.5));
            ( "trace_overhead_frac",
              1. -. (pps ~batch_packets:batch spanned /. pps ~batch_packets:batch plain) );
          ]),
      info @ [ ("probe_packets", I p.timed) ] )
  end
