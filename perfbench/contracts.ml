(* The analysis workload: every registry NF and every built-in topology
   derived from program to contract, then each topology's own workload
   replayed through [Topo.Harness.check] under the realistic model, one
   batch of transits at a time. *)

open Measure

let targets () =
  List.map (fun (e : Nf.Registry.entry) -> Derive.Nf (e.Nf.Registry.name, e)) (Nf.Registry.all ())
  @ List.map (fun (b : Topo.Builtin.entry) -> Derive.Topo b.Topo.Builtin.graph) (Topo.Builtin.all ())

(* A batch is [batch] transits on each topology in turn, one
   [Topo.Harness.check] call per topology, so every batch has the same mix.
   A transit costs ~100x a dataplane packet, so batches are small enough
   for a window of [Measure.batch_window] of them to fit inside one phase
   of the host's speed (see [Samples.fast_pool]). *)
let batch = 8
let stream_packets = 2048
let gap = 17
let start = 1_000_000

type topo = {
  graph : Topo.Graph.t;
  base : Net.Packet.t array;  (** the topology's workload, seed-shuffled *)
  harness : Topo.Harness.t;
}

(* The built-in workload in a seeded order: the mix of packet kinds is the
   topology's own, the sequence of states it drives comes from [seed]. *)
let shuffled ~seed (b : Topo.Builtin.entry) =
  let a =
    Array.of_list
      (List.map
         (fun (e : Workload.Stream.entry) -> e.Workload.Stream.packet)
         (b.Topo.Builtin.workload ~packets:stream_packets))
  in
  let rng = Workload.Prng.create ~seed in
  for i = Array.length a - 1 downto 1 do
    let j = Workload.Prng.below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let setup ~seed =
  List.mapi
    (fun i (b : Topo.Builtin.entry) ->
      {
        graph = b.Topo.Builtin.graph;
        base = shuffled ~seed:(seed + i) b;
        harness = Topo.Harness.create b.Topo.Builtin.graph;
      })
    (Topo.Builtin.all ())

(* Batch [k] of one topology's replay, its clock always moving forward.
   Harnesses mutate packets, so each batch gets fresh copies. *)
let entries t k =
  let nb = stream_packets / batch in
  let b = k mod nb and pass = k / nb in
  List.init batch (fun j ->
      let i = (b * batch) + j in
      {
        Workload.Stream.packet = Net.Packet.copy t.base.(i);
        now = start + (gap * ((pass * stream_packets) + i));
        in_port = 0;
      })

let check_batch checks t ~worst b =
  let r = Topo.Harness.check t.harness ~worst b in
  tally checks
    ~what:(t.graph.Topo.Graph.name ^ " transit within its composed bound")
    ~attempted:(2 * r.Topo.Harness.packets) (* IC and MA *)
    (List.map
       (fun (v : Topo.Harness.violation) ->
         Fmt.str "packet %d: %a bound %d < measured %d" v.Topo.Harness.packet_index
           Perf.Metric.pp v.metric v.bound v.measured)
       r.Topo.Harness.violations)

let rounds = 16

(* Derivation passes per round after the first: 46 derivations of each
   target a run, whose fastest fifth pools 140 samples, so p90 has 14
   beyond it. *)
let passes = 3
let fast_share = 0.2

let run ~seed ~seconds ~traced ~effective_cores =
  let checks = Measure.checks () in
  let targets = targets () in
  let expected = List.map (fun t -> Derive.read_file (Derive.expected_path t)) targets in
  let setup_s = Samples.create () in
  let timed_setup () =
    let x, dt = timed (fun () -> setup ~seed) in
    Samples.add setup_s dt;
    Array.of_list x
  in
  let topos = timed_setup () in
  let nt = Array.length topos and nb = stream_packets / batch in
  (* Each round sets up once more, derives every target [passes] times,
     then runs the closed loop over all the topologies, odd batches
     traced; the latest bounds gate the replay. *)
  let dstats = Derive.stats () in
  let worst = Hashtbl.create 3 and derived = ref [] in
  let derive_pass () =
    derived :=
      List.map2
        (fun target expected ->
          let d = Derive.timed dstats checks ~expected target in
          if Option.is_some d.Derive.topo then
            Hashtbl.replace worst (Derive.stem target) d.Derive.worst;
          d)
        targets expected
  in
  let worst t = Hashtbl.find worst t.graph.Topo.Graph.name in
  derive_pass ();
  (* warm-up: one pass of every topology's stream *)
  Array.iter
    (fun t ->
      for k = 0 to nb - 1 do
        check_batch checks t ~worst:(worst t) (entries t k)
      done)
    topos;
  let plain = Samples.create () and spanned = Samples.create () in
  let loop_s = (if traced then 0.3 else 0.5) *. seconds /. float_of_int rounds in
  let k = ref 0 in
  for round = 1 to rounds do
    if round > 1 then begin
      ignore (timed_setup () : topo array);
      for _ = 1 to passes do
        derive_pass ()
      done
    end;
    let until = now () +. loop_s in
    while now () < until do
      let bs = Array.map (fun t -> entries t (nb + !k)) topos in
      let check () = Array.iteri (fun i t -> check_batch checks t ~worst:(worst t) bs.(i)) topos in
      let on = traced && !k land 1 = 1 in
      let t0 = now () in
      if on then span "Topo.Harness.check" check else check ();
      let dt = now () -. t0 in
      Samples.add (if on then spanned else plain) (dt *. 1e6);
      incr k
    done
  done;
  let batch_packets = nt * batch in
  let metrics, info =
    end_to_end checks ~batch_packets ~batches:plain ~contract_ms:(Derive.fast_ms ~share:fast_share dstats)
      ~all_contract_ms:dstats.Derive.ms ~setups:setup_s
  in
  if not traced then (checks, metrics, info)
  else begin
    (* transit vs check on twin harnesses fed the same batches: replay
       alone, then replay plus the bound evaluation *)
    let twins =
      Array.map
        (fun t -> (Topo.Harness.create t.graph, Topo.Harness.create t.graph))
        topos
    in
    let probe k ~record =
      let i = k mod nt in
      let t = topos.(i) and replay_h, check_h = twins.(i) in
      let b () = entries t (k / nt) in
      let b1 = b () and b2 = b () in
      if record then begin
        ignore (span "Topo.Harness.replay" (fun () -> Topo.Harness.replay replay_h b1));
        ignore (span "Topo.Harness.check+" (fun () -> Topo.Harness.check check_h ~worst:(worst t) b2))
      end
      else begin
        ignore (Topo.Harness.replay replay_h b1);
        ignore (Topo.Harness.check check_h ~worst:(worst t) b2)
      end
    in
    for k = 0 to (nb * nt) - 1 do
      probe k ~record:false
    done;
    let until = now () +. (0.15 *. seconds) in
    let k = ref (nb * nt) and probed = ref 0 in
    while now () < until do
      probe !k ~record:true;
      probed := !probed + batch;
      incr k
    done;
    let us_per_pkt name = float_of_int (fst (span_total name)) /. float_of_int (max 1 !probed) in
    let transit = us_per_pkt "Topo.Harness.replay" in
    let check_extra = us_per_pkt "Topo.Harness.check+" -. transit in
    let wake_join = Probe.wake_join_us ~calls:2000 in
    let pool_map = Probe.pool_map_us ~calls:50 in
    let topo_us, topo_n = span_total "Topo.Analysis.run" in
    let sum f = List.fold_left (fun acc d -> acc + f d) 0 !derived in
    let sum_topo f = sum (fun d -> Option.fold ~none:0 ~some:f d.Derive.topo) in
    let specialized =
      Array.fold_left
        (fun acc t ->
          acc + List.length (List.filter snd (Topo.Harness.specialized t.harness)))
        0 topos
    in
    ( checks,
      complete per_layer_units
        (Derive.phase_metrics ()
        @ [
            ("effective_cores", effective_cores);
            ("wake_join_us", wake_join);
            ("pool_map_us", pool_map);
            ("paths", float_of_int (sum (fun d -> d.Derive.paths)));
            ("forks_pruned", float_of_int (sum (fun d -> d.Derive.pruned)));
            ("solver_cache_hit_frac", Derive.hit_frac dstats);
            ("topo_ms", float_of_int topo_us /. 1e3 /. float_of_int (max 1 topo_n));
            ("routes", float_of_int (sum_topo (fun t -> List.length t.Topo.Analysis.routes)));
            ("routes_pruned", float_of_int (sum_topo (fun t -> t.Topo.Analysis.infeasible_routes)));
            ("transit_us_per_pkt", transit);
            ("check_us_per_pkt", check_extra);
            ("specialized_nodes", float_of_int specialized);
            ( "unattributed_frac",
              1. -. (float_of_int batch_packets *. (transit +. check_extra)
                     /. Samples.quantile plain 0.5) );
            ( "trace_overhead_frac",
              1. -. (pps ~batch_packets spanned /. pps ~batch_packets plain) );
          ]),
      info @ [ ("probe_packets", I !probed) ] )
  end
