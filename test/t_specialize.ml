(* Equivalence and zero-allocation guarantees for the config-specialized
   executor (Exec.Specialize, DESIGN §12), the production engine:

   - golden: on every registry NF, replayed the way the Distiller does
     (realistic model, DMA boundary per packet) at jobs 1 and 4, the
     specialized stream matches the interpreter packet for packet;
   - coverage: every registry NF specializes, on every model family;
   - parity: on every registry NF the specialized stream must agree with
     the interpreter packet for packet — outcome, IC, MA, cycles, PCV
     observations and final packet bytes — on an address-blind (null,
     mem-batched), an address-insensitive-but-unbatched (conservative)
     and a coupled (realistic) model;
   - coupled exactness: on a recording model that logs the instruction
     count at every memory access, the specialized log must equal the
     interpreter's access for access — the order in which static packs,
     operator, call and loop-test charges land, which totals cannot see;
   - exit coverage: every guard exit applies its own path's charge pack,
     so packets built to leave through each exit of each registry NF
     get their own exact-charge check on every model family;
   - fast paths: each dslib sink twin charges exactly what its metered
     method does, branch by branch;
   - topologies: every built-in topology's transits through the
     specialized harness match an interpreter replay hop for hop;
   - zero allocation: every registry NF allocates exactly 0 minor
     words per packet through [Exec.Specialize.exec] in steady state,
     drop paths included, and so does the NAT's churn write path (expire,
     free, allocate, insert on every packet);
   - stuck parity: runtime-contract violations raise the same message as
     the interpreter (charges are equivalent, not identical — a stuck
     packet reaches no exit, so its path's pack never lands and only the
     message is compared);
   - fallbacks: a tracing meter, analysis mode and a call site without a
     fast path must each decline to specialize yet still execute
     exactly. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

type side = {
  run : (Exec.Interp.run, string) result;
  observations : (Perf.Pcv.t * int) list;
  bytes : Bytes.t;
  accesses : Proptest.Recording.access list;
}

(* A replay's hardware: a fresh model, and how to read the accesses it
   logged since the last packet (always none unless it records). *)
let plain model () = (model (), fun () -> [])
let null = plain Hw.Model.null
let conservative = plain Hw.Model.conservative
let realistic = plain Hw.Model.realistic

let recording () =
  let r = Proptest.Recording.create () in
  (Proptest.Recording.model r, fun () -> Proptest.Recording.take r)

let families =
  [
    ("null", null);
    ("conservative", conservative);
    ("realistic", realistic);
    ("recording", recording);
  ]

let copy_stream stream =
  List.map
    (fun e ->
      { e with Workload.Stream.packet = Net.Packet.copy e.Workload.Stream.packet })
    stream

let replay ~engine ~hw ?(must_specialize = false)
    (entry : Nf.Registry.entry) stream =
  let model, take = hw () in
  let meter = Exec.Meter.create model in
  let exec =
    match engine with
    | `Interp ->
        let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
        fun ~in_port ~now packet ->
          Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss) ~in_port
            ~now entry.Nf.Registry.program packet
    | `Specialized ->
        let sp, _ = Nf.Registry.specialize entry ~meter in
        if must_specialize then
          check_bool
            (entry.Nf.Registry.name ^ " runs the specialized body")
            true
            (Exec.Specialize.specialized sp);
        fun ~in_port ~now packet -> Exec.Specialize.run sp ~in_port ~now packet
  in
  List.map
    (fun { Workload.Stream.packet; now; in_port } ->
      Exec.Meter.reset_observations meter;
      let run =
        match exec ~in_port ~now packet with
        | r -> Ok r
        | exception Exec.Interp.Stuck msg -> Error msg
      in
      {
        run;
        observations = Exec.Meter.observations meter;
        bytes = Net.Packet.to_bytes packet;
        accesses =
          (* a Stuck packet's accesses, like its costs, are only
             charge-equivalent *)
          (let log = take () in
           match run with Ok _ -> log | Error _ -> []);
      })
    stream

let pp_accesses = Fmt.(list ~sep:(any "; ") Proptest.Recording.pp_access)

(* Replay [stream] on both engines and demand packet-exact agreement;
   returns the specialized side's results. *)
let compare_replays ?must_specialize ~hw ~ctx entry stream =
  let interp = replay ~engine:`Interp ~hw entry (copy_stream stream) in
  let spec =
    replay ~engine:`Specialized ~hw ?must_specialize entry
      (copy_stream stream)
  in
  List.iteri
    (fun i (a, b) ->
      let ctx what = Printf.sprintf "%s packet %d %s" ctx i what in
      check_bool (ctx "run") true (a.run = b.run);
      check_bool (ctx "observations") true (a.observations = b.observations);
      check_bool (ctx "bytes") true (Bytes.equal a.bytes b.bytes);
      if a.accesses <> b.accesses then
        Alcotest.failf "%s:@.interp:      %a@.specialized: %a"
          (ctx "memory accesses") pp_accesses a.accesses pp_accesses
          b.accesses)
    (List.combine interp spec);
  spec

let check_parity ?(packets = 200) ?(seed = 77) ?must_specialize ~hw ~mname
    nf =
  let stream =
    Proptest.Gen_net.stream_for (Workload.Prng.create ~seed) ~nf ~packets
  in
  ignore
    (compare_replays ?must_specialize ~hw
       ~ctx:(Printf.sprintf "%s/%s" nf mname)
       (Nf.Registry.find nf) stream)

(* The four NFs the throughput benchmark freezes; each must actually
   take the specialized body (not the fallback) under both uncoupled
   models. *)
let benched = [ "firewall"; "static_router"; "nat"; "bridge" ]

let test_parity_null () =
  List.iter
    (check_parity ~hw:null ~mname:"null" ~must_specialize:true)
    benched

let test_parity_conservative () =
  List.iter
    (check_parity ~hw:conservative ~mname:"conservative"
       ~must_specialize:true)
    benched

(* Every registry NF, each on the specialized body. *)
let test_parity_all_nfs () =
  List.iter
    (fun nf ->
      check_parity ~packets:120 ~hw:null ~mname:"null" ~must_specialize:true
        nf)
    (Nf.Registry.names ())

(* Longer, differently-seeded streams for the two stateful NFs whose
   fast paths carry the most machinery: NAT translation rewrites both
   directions through the port allocator, and the bridge walks
   collision chains as the MAC table fills. *)
let test_nat_stress_parity () =
  check_parity ~packets:800 ~seed:91 ~hw:null ~mname:"null"
    ~must_specialize:true "nat"

let test_bridge_stress_parity () =
  check_parity ~packets:800 ~seed:91 ~hw:null ~mname:"null"
    ~must_specialize:true "bridge"

(* Every registry NF: all their call sites have fast paths. *)
let specializing = Nf.Registry.names ()

let specializes model (entry : Nf.Registry.entry) =
  let meter = Exec.Meter.create (model ()) in
  Exec.Specialize.specialized (fst (Nf.Registry.specialize entry ~meter))

let check_all_specialize ~mname model =
  List.iter
    (fun (e : Nf.Registry.entry) ->
      check_bool
        (Printf.sprintf "%s specializes on the %s model" e.Nf.Registry.name
           mname)
        true (specializes model e))
    (Nf.Registry.all ())

(* No registry NF falls back to the interpreter, whatever the model's
   memory pricing. *)
let test_every_nf_specializes () =
  check_all_specialize ~mname:"null" Hw.Model.null;
  check_all_specialize ~mname:"conservative" Hw.Model.conservative;
  check_all_specialize ~mname:"realistic" Hw.Model.realistic

(* A coupled model changes how charges land, not whether a stream
   specializes: the access-logging recording model, coupled like the
   realistic one, takes the specialized body too. *)
let test_coupled_specializes () =
  check_all_specialize ~mname:"recording" (fun () ->
      Proptest.Recording.model (Proptest.Recording.create ()))

(* Packet by packet, each specializing NF's accesses must reach a
   coupled model with exactly the instruction count the interpreter had
   charged before them; the realistic model's own cycles must agree too. *)
let test_coupled_access_order () =
  List.iter
    (fun nf ->
      check_parity ~packets:160 ~hw:recording ~mname:"recording"
        ~must_specialize:true nf;
      check_parity ~packets:160 ~seed:91 ~hw:realistic ~mname:"realistic"
        ~must_specialize:true nf)
    specializing

(* ---- Exit coverage ---------------------------------------------------- *)

(* Each guard exit charges its own pack — the static charge of the path
   that reaches it — so each exit needs its own exact-charge check:
   packets built to leave through every exit, replayed on both model
   families. *)

let src = 0x0a000001
let dst = 0x0a000002

let udp ?ttl ?(src_ip = src) ?(dst_ip = dst) ?(src_port = 1000)
    ?(dst_port = 80) () =
  Net.Build.udp ?ttl ~src_ip ~dst_ip ~src_port ~dst_port ()

let with_proto proto p =
  Net.Packet.set_u8 p 23 proto;
  p

(* The parse ladder's drops and the router/firewall header checks, plus
   one valid packet per transport. *)
let common_exits () =
  [
    Net.Packet.create 20 (* truncated: no room for an IPv4 header *);
    Net.Build.non_ip ();
    Net.Build.ipv4_with_options ~options:1 ~src_ip:src ~dst_ip:dst ()
    (* ihl = 6 *);
    with_proto Net.Ipv4.proto_icmp (udp ());
    with_proto 47 (udp ());
    udp ~ttl:1 ();
    udp ~ttl:0 ();
    udp ~src_ip:0 ();
    udp ~dst_ip:0xffffffff ();
    udp ();
    Net.Build.tcp ~src_ip:src ~dst_ip:dst ~src_port:1000 ~dst_port:80 ();
  ]

let stream_of ports_packets =
  List.mapi
    (fun i (in_port, packet) ->
      { Workload.Stream.packet; now = 1_000_000 + (i * 100); in_port })
    ports_packets

(* every common exit on both ingress ports: port 1 is the NAT's and the
   connection tracker's external side, where an unknown flow misses *)
let common_stream () =
  stream_of
    (List.concat_map (fun p -> [ (0, p); (1, Net.Packet.copy p) ])
       (common_exits ()))

let flow k = udp ~src_ip:(src + k) ~src_port:(2000 + k) ()

(* NF-specific exits: (label, entry, stream, expected outcomes at stream
   positions — proof that the stream reaches the exit at all). *)
let specific_exits () =
  let tiny_nat c = Nf.Registry.of_spec (Nf.Spec.Nat c) in
  let nat = Nf.Nat.default_config in
  (* three new internal flows, a reply to the first allocated port, and
     an external packet no mapping covers *)
  let nat_stream =
    stream_of
      [
        (0, flow 1); (0, flow 2); (0, flow 3);
        (1, udp ~dst_ip:Nf.Nat.external_ip ~dst_port:nat.Nf.Nat.port_lo ());
        (1, udp ~dst_ip:Nf.Nat.external_ip ~dst_port:4242 ());
      ]
  in
  let mac k = Net.Ethernet.mac_of_parts [| 2; 0; 0; 0; 0; k |] in
  let frame s d =
    Net.Build.eth ~src_mac:(mac s) ~dst_mac:d
      ~ethertype:Net.Ethernet.ethertype_ipv4 ()
  in
  let echo ~dst_ip =
    Net.Icmp.echo_request ~src_ip:src ~dst_ip ~ident:1 ~seq:1 ()
  in
  let reply = echo ~dst_ip:Nf.Responder.device_ip in
  Net.Icmp.set_type reply Net.Icmp.type_echo_reply;
  [
    ( "nat table full",
      tiny_nat { nat with capacity = 2; buckets = 2 },
      nat_stream,
      [ (2, Exec.Interp.Dropped); (4, Exec.Interp.Dropped) ] );
    ( "nat ports exhausted",
      tiny_nat { nat with port_hi = nat.Nf.Nat.port_lo + 1 },
      nat_stream,
      [ (2, Exec.Interp.Dropped); (3, Exec.Interp.Sent 0) ] );
    ( "conntrack table full",
      Nf.Registry.of_spec
        (Nf.Spec.Conntrack
           { Nf.Conntrack.default_config with capacity = 2; buckets = 2 }),
      stream_of
        [
          (0, flow 1); (0, flow 2); (0, flow 3);
          (1, udp ~src_ip:dst ~dst_ip:(src + 1) ~src_port:80 ~dst_port:2001 ());
        ],
      [ (2, Exec.Interp.Dropped); (3, Exec.Interp.Sent 0) ] );
    ( "bridge",
      Nf.Registry.find "bridge",
      stream_of
        [
          (0, frame 1 (mac 2)) (* unknown destination *);
          (1, frame 2 (mac 1));
          (0, frame 3 (mac 1)) (* destination behind the ingress port *);
          (0, frame 1 Net.Ethernet.broadcast_mac);
        ],
      [
        (0, Exec.Interp.Flooded); (1, Exec.Interp.Sent 0);
        (2, Exec.Interp.Dropped); (3, Exec.Interp.Flooded);
      ] );
    ( "responder",
      Nf.Registry.find "responder",
      stream_of
        [
          (0, echo ~dst_ip:Nf.Responder.device_ip);
          (0, echo ~dst_ip:dst) (* not for us *);
          (0, reply);
        ],
      [
        (0, Exec.Interp.Sent 0); (1, Exec.Interp.Dropped);
        (2, Exec.Interp.Dropped);
      ] );
  ]

let test_exit_coverage () =
  List.iter
    (fun (mname, hw) ->
      List.iter
        (fun nf ->
          ignore
            (compare_replays ~must_specialize:true ~hw
               ~ctx:(Printf.sprintf "%s exits/%s" nf mname)
               (Nf.Registry.find nf) (common_stream ())))
        specializing;
      List.iter
        (fun (label, entry, stream, expect) ->
          let ctx = Printf.sprintf "%s/%s" label mname in
          let spec =
            compare_replays ~must_specialize:true ~hw ~ctx entry stream
          in
          List.iter
            (fun (i, outcome) ->
              check_bool
                (Printf.sprintf "%s packet %d leaves by the expected exit" ctx
                   i)
                true
                (match (List.nth spec i).run with
                | Ok r -> r.Exec.Interp.outcome = outcome
                | Error _ -> false))
            expect)
        (specific_exits ()))
    families

(* The registry's programs are mostly guard ladders; these two cover
   the other control shapes on every model family: branch arms that
   rejoin, loops whose body exits or falls back to the test, packet
   loads inside operands, rejoining arms and loop tests, and calls
   inside loops and arms, which leave charges in the deferred counters
   for the exits after them to retire. *)
let control_shapes () =
  let open Ir in
  let nat = Nf.Registry.find "nat" in
  (* the replays read only an entry's name, program and setup *)
  let entry name ~state ~setup body =
    {
      nat with
      Nf.Registry.name;
      program = Program.make ~name ~state body;
      setup;
    }
  in
  let stateless =
    entry "rejoin_loop" ~state:[] ~setup:(fun _ -> [])
      Expr.
        [
          Stmt.assign "x" (load8 (int 14));
          Stmt.if_
            (var "x" > int 100)
            [
              Stmt.if_ (var "x" > int 200) [ Stmt.drop ] [];
              Stmt.assign "y" (int 1);
            ]
            [
              Stmt.assign "y" (int 2);
              Stmt.assign "z" (var "y" * load8 (int 15));
            ];
          Stmt.assign "i" (int 0);
          Stmt.While
            ( Stmt.Pcv_loop ("n", 8),
              var "i" < Binop (And, load8 (int 14), int 7),
              [
                Stmt.if_ (var "i" == int 5) [ Stmt.forward (int 9) ] [];
                Stmt.store8 (int 40) (var "i");
                Stmt.assign "i" (var "i" + int 1);
              ] );
          Stmt.if_ (Binop (And, var "x", int 8) != int 0) [ Stmt.flood ] [];
          Stmt.forward (var "y");
        ]
  in
  let stateful =
    entry "calls_in_loop"
      ~state:[ { Program.instance = "ft"; kind = "flow_table" } ]
      ~setup:(fun alloc ->
        [
          ( "ft",
            Dslib.Flow_table.to_ds
              (Dslib.Flow_table.create ~base:(Dslib.Layout.region alloc)
                 ~key_len:1 ~capacity:8 ~buckets:8 ~timeout:1_000_000 ()) );
        ])
      Expr.
        [
          Stmt.assign "h" (load8 (int 26));
          Stmt.assign "i" (int 0);
          Stmt.assign "s" (int 0);
          Stmt.While
            ( Stmt.Unroll 3,
              var "i" < int 2,
              [
                Stmt.call ~ret:"r" "ft" "get" [ var "h" + var "i"; var "now" ];
                Stmt.if_
                  (var "r" < int 0)
                  [
                    Stmt.call ~ret:"s" "ft" "put"
                      [ var "h" + var "i"; int 1; var "now" ];
                  ]
                  [ Stmt.assign "s" (var "r") ];
                Stmt.assign "i" (var "i" + int 1);
              ] );
          Stmt.if_
            (Binop (And, var "h", int 1) == int 1)
            [ Stmt.assign "t" (int 1) ]
            [ Stmt.call ~ret:"t" "ft" "size" [] ];
          Stmt.if_ (var "s" < int 0) [ Stmt.drop ] [];
          Stmt.forward (var "t");
        ]
  in
  [ stateless; stateful ]

let test_control_shapes () =
  let stream =
    stream_of
      (List.init 40 (fun k ->
           let p = udp ~src_ip:(src + (k * 37 mod 23)) () in
           Net.Packet.set_u8 p 14 (k * 29 mod 256);
           (k land 1, p)))
  in
  List.iter
    (fun (mname, hw) ->
      List.iter
        (fun entry ->
          ignore
            (compare_replays ~must_specialize:true ~hw
               ~ctx:(Printf.sprintf "%s/%s" entry.Nf.Registry.name mname)
               entry stream))
        (control_shapes ()))
    families

(* ---- Zero allocation -------------------------------------------------- *)

(* Steady state through [exec]: warm on [stream.(0 .. warm - 1)] (tables
   populated, meter observation buffers grown), then count the minor
   words the rest of [stream] allocates.  The two trailing
   [Gc.minor_words] reads measure the probe's own cost so it can be
   subtracted. *)
let steady_state_words (entry : Nf.Registry.entry) stream ~warm =
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let sp, _ = Nf.Registry.specialize entry ~meter in
  let run lo hi =
    for i = lo to hi - 1 do
      let { Workload.Stream.packet; now; in_port } = stream.(i) in
      Exec.Meter.reset_observations meter;
      ignore (Exec.Specialize.exec sp ~in_port ~now packet : int)
    done
  in
  run 0 warm;
  let w0 = Gc.minor_words () in
  run warm (Array.length stream);
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  int_of_float (w1 -. w0 -. (w2 -. w1))

(* Demand EXACTLY zero minor words per packet.  The stream mixes flows
   with every common exit, so the guard exits' own closures are held to
   the same bar. *)
let test_zero_alloc () =
  List.iter
    (fun nf ->
      let n = 1024 in
      let flows =
        Workload.Gen.distinct_flows (Workload.Prng.create ~seed:42) 64
      in
      let base =
        Array.of_list
          (List.map
             (fun e -> (e.Workload.Stream.packet, e.Workload.Stream.in_port))
             (common_stream ())
          @ List.map (fun p -> (p, 0)) (Workload.Gen.packets_of_flows flows))
      in
      let stream =
        Array.init (2 * n) (fun i ->
            let packet, in_port = base.(i mod Array.length base) in
            {
              Workload.Stream.packet = Net.Packet.copy packet;
              in_port;
              now = 1_000_000 + (i * 100);
            })
      in
      check_int (nf ^ " minor words over a steady-state pass") 0
        (steady_state_words (Nf.Registry.find nf) stream ~warm:n))
    specializing

(* The churn write path, which the default NAT's 10 s timeout never takes
   above: the soak's small NAT (1,024 entries, a timeout of 1,024 packets
   of stream time, gap 100) fed a new flow on every packet, so in steady
   state each packet expires a mapping, frees its port, allocates one and
   inserts.  The specialized stream must match the interpreter's IC, MA
   and PCV observations, every steady-state packet must expire exactly one
   flow, and [exec] must allocate 0 minor words per packet. *)
let churn_gap = 100

let churn_nat () =
  Nf.Registry.of_spec
    (Nf.Spec.Nat
       {
         Nf.Nat.default_config with
         capacity = 1024;
         buckets = 1024;
         timeout = 1024 * churn_gap;
         granularity = churn_gap;
         port_lo = 1024;
         port_hi = 3071;
       })

let churn_stream n =
  List.mapi
    (fun i packet ->
      {
        Workload.Stream.packet;
        now = 1_000_000 + (i * churn_gap);
        in_port = 0;
      })
    (Workload.Soak.churn_packets ~offset:0 n)

let test_churn_zero_alloc () =
  let entry = churn_nat () in
  let n = 1024 in
  let spec =
    compare_replays ~must_specialize:true ~hw:null ~ctx:"nat churn" entry
      (churn_stream (3 * n))
  in
  List.iteri
    (fun i side ->
      if i >= 2 * n then
        check_int
          (Printf.sprintf "nat churn packet %d expires one flow" i)
          1
          (List.fold_left
             (fun acc (pcv, v) ->
               if Perf.Pcv.equal pcv Perf.Pcv.expired then acc + v else acc)
             0 side.observations))
    spec;
  check_int "nat churn minor words over a steady-state pass" 0
    (steady_state_words entry
       (Array.of_list (churn_stream (3 * n)))
       ~warm:(2 * n))

(* ---- Golden: the Distiller's discipline on every NF ------------------- *)

(* Replay [stream] the way the Distiller does (shared warm realistic
   meter, observation reset, DMA boundary before every packet) through
   the interpreter or the specialized engine.  Returns, per packet, the
   run and its observations and final bytes, plus whether the stream
   took the specialized body. *)
let golden_replay ~engine (entry : Nf.Registry.entry) stream =
  let model = Hw.Model.realistic () in
  let meter = Exec.Meter.create model in
  let dma =
    [ (Exec.Interp.packet_base, 2048); (Exec.Interp.rx_ring_base, 256) ]
  in
  let exec, specialized =
    match engine with
    | `Interp ->
        let mode =
          Exec.Interp.Production
            (entry.Nf.Registry.setup (Dslib.Layout.allocator ()))
        in
        ( (fun ~in_port ~now packet ->
            Exec.Interp.run ~meter ~mode ~in_port ~now
              entry.Nf.Registry.program packet),
          false )
    | `Specialized ->
        let sp, _ = Nf.Registry.specialize entry ~meter in
        ( (fun ~in_port ~now packet ->
            Exec.Specialize.run sp ~in_port ~now packet),
          Exec.Specialize.specialized sp )
  in
  ( List.map
      (fun { Workload.Stream.packet; now; in_port } ->
        Exec.Meter.reset_observations meter;
        model.Hw.Model.boundary dma;
        let run =
          match exec ~in_port ~now packet with
          | r -> Ok r
          | exception Exec.Interp.Stuck msg -> Error msg
        in
        (run, Exec.Meter.observations meter, Net.Packet.to_bytes packet))
      stream,
    specialized )

(* Per-packet disagreements, as plain strings.  This runs on pool worker
   domains, so it must not touch Alcotest: its checks print through one
   shared Format queue, and concurrent checks corrupt it.  Every
   assertion happens on the main domain. *)
let golden_mismatches nf =
  let entry = Nf.Registry.find nf in
  let stream =
    Proptest.Gen_net.stream_for (Workload.Prng.create ~seed:77) ~nf
      ~packets:40
  in
  let interp, _ = golden_replay ~engine:`Interp entry (copy_stream stream) in
  let spec, specialized =
    golden_replay ~engine:`Specialized entry (copy_stream stream)
  in
  (if specialized then [] else [ nf ^ " fell back to the interpreter" ])
  @ List.concat
      (List.mapi
         (fun i ((ra, oa, ba), (rb, ob, bb)) ->
           List.filter_map
             (fun (what, same) ->
               if same then None
               else Some (Printf.sprintf "%s packet %d %s" nf i what))
             [
               ("run", ra = rb);
               ("observations", oa = ob);
               ("bytes", Bytes.equal ba bb);
             ])
         (List.combine interp spec))

let test_golden_all_nfs ~jobs () =
  let names = Nf.Registry.names () in
  List.iter2
    (fun nf found ->
      Alcotest.(check (list string)) (nf ^ " matches the interpreter") [] found)
    names
    (Exec.Pool.map ~jobs golden_mismatches names)

(* ---- Stuck parity ----------------------------------------------------- *)

(* Charge equivalence, not identity: a Stuck packet may differ from the
   interpreter by part of its final segment's pack, so only the message
   (and the fact of being stuck) is pinned here. *)
let run_stuck program packet engine =
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let mode = Exec.Interp.Production [] in
  match
    match engine with
    | `Interp -> Exec.Interp.run ~meter ~mode program packet
    | `Specialized ->
        Exec.Specialize.run
          (Exec.Specialize.bind program ~meter ~mode)
          packet
  with
  | (_ : Exec.Interp.run) -> "no-stuck"
  | exception Exec.Interp.Stuck msg -> msg

let check_stuck_parity name program =
  let packet = Net.Packet.create 64 in
  let msg_i = run_stuck program (Net.Packet.copy packet) `Interp in
  let msg_s = run_stuck program (Net.Packet.copy packet) `Specialized in
  check_bool (name ^ " stuck at all") true (msg_i <> "no-stuck");
  check_string (name ^ " message") msg_i msg_s

let test_stuck_parity () =
  let open Ir in
  check_stuck_parity "folded division by zero"
    (Program.make ~name:"divz" ~state:[]
       [ Stmt.assign "x" Expr.(int 1 / int 0); Stmt.drop ]);
  check_stuck_parity "dynamic division by zero"
    (Program.make ~name:"divz_dyn" ~state:[]
       [
         Stmt.assign "z" Expr.(load8 (int 0));
         Stmt.assign "x" Expr.(int 1 / var "z");
         Stmt.drop;
       ]);
  check_stuck_parity "negative packet offset"
    (Program.make ~name:"negoff" ~state:[]
       [ Stmt.assign "x" (Expr.load8 Expr.(int 0 - int 4)); Stmt.drop ]);
  check_stuck_parity "out-of-bounds load"
    (Program.make ~name:"oob" ~state:[]
       [ Stmt.assign "x" (Expr.load32 (Expr.int 2000)); Stmt.drop ]);
  check_stuck_parity "out-of-bounds store"
    (Program.make ~name:"oob_store" ~state:[]
       [ Stmt.store16 (Expr.int 63) (Expr.int 7); Stmt.drop ])

(* ---- dslib fast paths ------------------------------------------------- *)

(* A sink charging [meter]'s model the way a specialized body does:
   batched on an address-blind model, otherwise each access at its
   address with the deferred counters landed just before it — exact on
   coupled models too.  [settle] lands whatever a call left behind. *)
let sink_on meter =
  let nk = Hw.Cost.nkinds in
  let counts = Array.make (nk + 1) 0 in
  let batched = Exec.Meter.model_mem_bulk meter <> None in
  let land_ () =
    Exec.Meter.model_instr_pack meter counts;
    Array.fill counts 0 nk 0
  in
  let s_mem =
    if batched then fun ~addr:_ ~write:_ ~dependent:_ ->
      counts.(nk) <- counts.(nk) + 1
    else fun ~addr ~write ~dependent ->
      land_ ();
      Exec.Meter.model_mem meter ~addr ~write ~dependent
  in
  let settle () =
    land_ ();
    match Exec.Meter.model_mem_bulk meter with
    | Some bulk ->
        bulk counts.(nk);
        counts.(nk) <- 0
    | None -> ()
  in
  ( { Exec.Ds.s_counts = counts; s_mem; s_mem_batched = batched;
      s_meter = meter },
    settle )

(* One call's observable effect: result, the model's running totals and
   the accesses it logged. *)
type call_effect = {
  result : int;
  ic : int;
  ma : int;
  cycles : int;
  obs : (Perf.Pcv.t * int) list;
  logged : Proptest.Recording.access list;
}

(* Each structure's calls, chosen to take every branch of its methods. *)
let fast_path_scenarios () =
  [
    ( "token_bucket",
      (fun () ->
        Dslib.Token_bucket.to_ds
          (Dslib.Token_bucket.create ~base:0x2000_0000 ~rate:10 ~burst:1000
             ())),
      [
        ("conform", [| 500; 0 |]) (* conform *);
        ("conform", [| 600; 1 |]) (* exceed: 510 tokens after refill *);
        ("conform", [| 100; 2 |]);
        ("conform", [| 420; 2 |]) (* same instant: no refill *);
        ("conform", [| 1; 2 |]) (* exceed on an empty bucket *);
        ("conform", [| 900; 1_000_000_000 |]) (* clock jump clamps *);
        ("conform", [| 2000; 1_000_000_001 |]) (* beyond the burst *);
      ] );
    ( "backend_pool",
      (fun () ->
        Dslib.Backend_pool.to_ds
          (Dslib.Backend_pool.create ~base:0x2100_0000 ~count:4 ~timeout:100)),
      [
        ("heartbeat", [| 1; 10 |]);
        ("heartbeat", [| 4; 10 |]) (* out of range *);
        ("heartbeat", [| -1; 10 |]);
        ("is_alive", [| 1; 50 |]) (* alive *);
        ("is_alive", [| 1; 200 |]) (* dead: heartbeat too old *);
        ("is_alive", [| 2; 5 |]) (* dead: never heartbeated *);
        ("is_alive", [| 7; 0 |]) (* out of range *);
        ("is_alive", [| -3; 0 |]);
      ] );
    ( "hash_ring",
      (fun () ->
        Dslib.Hash_ring.to_ds
          (Dslib.Hash_ring.create ~base:0x2200_0000 ~table_size:13
             ~backends:[ 1; 2; 3 ])),
      List.map
        (fun h -> ("backend_for", [| h |]))
        [ 0; 5; 12; 13; 1_000_003 ] );
    ( "lpm_trie",
      (fun () ->
        let t = Dslib.Lpm_trie.create ~base:0x2300_0000 ~default_port:9 in
        List.iter
          (fun (prefix, len, port) ->
            Dslib.Lpm_trie.add_route t ~prefix ~len ~port)
          [
            (0x0a000000, 8, 1); (0x0a010000, 16, 2); (0x0a010200, 24, 3);
            (0x0a010203, 32, 4); (0xc0a80000, 13, 5);
          ];
        Dslib.Lpm_trie.to_ds t),
      (* depths 0 (miss), 1, 8, 13, 16, 24 and 32 *)
      List.map
        (fun ip -> ("lookup", [| ip |]))
        [
          0x01020304; 0x8a000000; 0x0aff0000; 0xc0a80101; 0x0a01ff00;
          0x0a010201; 0x0a010203;
        ] );
    ( "lpm_dir24_8",
      (fun () ->
        let t = Dslib.Lpm_dir24_8.create ~base:0x2400_0000 ~default_port:9 in
        List.iter
          (fun (prefix, len, port) ->
            Dslib.Lpm_dir24_8.add_route t ~prefix ~len ~port)
          [ (0x0a000000, 16, 1); (0x0a000180, 28, 2); (0x0b000000, 24, 3) ];
        Dslib.Lpm_dir24_8.to_ds t),
      (* tbl24 hits, the tbl8 route, its /24's tbl8 fallback, a miss *)
      List.map
        (fun ip -> ("lookup", [| ip |]))
        [ 0x0a00ff01; 0x0b000007; 0x0a000185; 0x0a000101; 0x0c000000 ] );
  ]
  @ List.map
      (fun rows ->
        let key k = [| 0x0a000000 + k; 0; 0; k land 3; 17 |] in
        ( Printf.sprintf "count_min (%d row%s)" rows
            (if rows = 1 then "" else "s"),
          (fun () ->
            Dslib.Count_min.to_ds
              (Dslib.Count_min.create ~base:0x2500_0000 ~rows ~width:8)),
          List.concat_map
            (fun k -> [ ("update", key k); ("estimate", key (k + 1)) ])
            [ 0; 1; 0; 2; 9; 0; 1 ] ))
      [ 1; 4 ]

let test_fast_path_twins () =
  List.iter
    (fun (mname, hw) ->
      List.iter
        (fun (label, make, calls) ->
          let run engine =
            let model, take = hw () in
            let meter = Exec.Meter.create model in
            let ds : Exec.Ds.t = make () in
            let sink, settle = sink_on meter in
            List.map
              (fun (meth, args) ->
                Exec.Meter.reset_observations meter;
                let result =
                  match engine with
                  | `Metered -> ds.Exec.Ds.call meter meth (Array.copy args)
                  | `Fast -> (
                      match ds.Exec.Ds.fast_path sink meth with
                      | Some f ->
                          let r = f (Array.copy args) in
                          settle ();
                          r
                      | None ->
                          Alcotest.failf "%s.%s has no fast path" label meth)
                in
                {
                  result;
                  ic = Exec.Meter.ic meter;
                  ma = Exec.Meter.ma meter;
                  cycles = Exec.Meter.cycles meter;
                  obs = Exec.Meter.observations meter;
                  logged = take ();
                })
              calls
          in
          List.iteri
            (fun i (a, b) ->
              check_bool
                (Printf.sprintf "%s call %d (%s) on %s" label i
                   (fst (List.nth calls i)) mname)
                true (a = b))
            (List.combine (run `Metered) (run `Fast)))
        (fast_path_scenarios ()))
    families

(* ---- Topologies ------------------------------------------------------- *)

(* Every built-in topology's workload, twice over with the clock moved
   on, through the specialized harness on the realistic model — and
   through a reference that walks the same graph on the interpreter,
   one realistic model shared by its nodes: every hop must agree. *)
let reference_transit ~hw stations (g : Topo.Graph.t) ~in_port ~now packet =
  hw.Hw.Model.boundary [ (Exec.Interp.packet_base, 2048) ];
  let rec hop_at name in_port acc =
    let program, meter, dss = List.assoc name stations in
    Exec.Meter.reset_observations meter;
    let run =
      Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss) ~in_port ~now
        program packet
    in
    let hop =
      {
        Topo.Harness.node = name;
        outcome = run.Exec.Interp.outcome;
        ic = run.Exec.Interp.ic;
        ma = run.Exec.Interp.ma;
        cycles = run.Exec.Interp.cycles;
        observations = Exec.Meter.observations meter;
      }
    in
    let acc = hop :: acc in
    match run.Exec.Interp.outcome with
    | Exec.Interp.Dropped -> (List.rev acc, Topo.Analysis.Dropped name)
    | Exec.Interp.Flooded -> (List.rev acc, Topo.Analysis.Flooded name)
    | Exec.Interp.Sent p -> (
        let edges = Topo.Graph.out_edges g name in
        let target =
          match
            List.find_opt
              (fun (e : Topo.Graph.edge) -> e.Topo.Graph.sel = Topo.Graph.Port p)
              edges
          with
          | Some e -> Some e.Topo.Graph.target
          | None ->
              List.find_map
                (fun (e : Topo.Graph.edge) ->
                  if e.Topo.Graph.sel = Topo.Graph.Any then
                    Some e.Topo.Graph.target
                  else None)
                edges
        in
        match target with
        | Some (Topo.Graph.Node next) -> hop_at next p acc
        | Some (Topo.Graph.Exit label) ->
            (List.rev acc, Topo.Analysis.Exited { node = name; label })
        | None ->
            ( List.rev acc,
              Topo.Analysis.Exited
                { node = name; label = Topo.Graph.default_exit } ))
  in
  hop_at g.Topo.Graph.ingress in_port []

let test_topology_parity () =
  List.iter
    (fun (b : Topo.Builtin.entry) ->
      let g = b.Topo.Builtin.graph in
      let harness = Topo.Harness.create g in
      List.iter
        (fun (node, sp) ->
          check_bool
            (Printf.sprintf "%s/%s runs the specialized body" g.Topo.Graph.name
               node)
            true sp)
        (Topo.Harness.specialized harness);
      let hw = Hw.Model.realistic () in
      let stations =
        List.map
          (fun (n : Topo.Graph.node) ->
            let entry = Nf.Registry.of_spec n.Topo.Graph.spec in
            ( n.Topo.Graph.name,
              ( entry.Nf.Registry.program,
                Exec.Meter.create hw,
                entry.Nf.Registry.setup (Dslib.Layout.allocator ()) ) ))
          g.Topo.Graph.nodes
      in
      let stream = b.Topo.Builtin.workload ~packets:384 in
      let span =
        match (stream, List.rev stream) with
        | first :: _, last :: _ ->
            last.Workload.Stream.now - first.Workload.Stream.now + 1000
        | _ -> 0
      in
      for pass = 0 to 1 do
        List.iteri
          (fun i { Workload.Stream.packet; now; in_port } ->
            let now = now + (pass * span) in
            let ctx =
              Printf.sprintf "%s pass %d packet %d" g.Topo.Graph.name pass i
            in
            let p_spec = Net.Packet.copy packet
            and p_ref = Net.Packet.copy packet in
            let tr = Topo.Harness.transit harness ~in_port ~now p_spec in
            let hops, egress =
              reference_transit ~hw stations g ~in_port ~now p_ref
            in
            check_bool (ctx ^ " hops") true (tr.Topo.Harness.hops = hops);
            check_bool (ctx ^ " egress") true (tr.Topo.Harness.egress = egress);
            check_bool (ctx ^ " bytes") true
              (Bytes.equal (Net.Packet.to_bytes p_spec)
                 (Net.Packet.to_bytes p_ref)))
          stream
      done)
    (Topo.Builtin.all ())

(* ---- Fallbacks -------------------------------------------------------- *)

(* [bind] must decline to specialize — and still execute exactly —
   whenever its charging discipline cannot reproduce what the
   configuration demands: a tracing meter (per-event stream), analysis
   mode, or a call site without a fast path. *)
let test_fallback_tracing () =
  let entry = Nf.Registry.find "firewall" in
  let meter = Exec.Meter.create ~trace:true (Hw.Model.null ()) in
  let sp, _ = Nf.Registry.specialize entry ~meter in
  check_bool "tracing meter falls back" false (Exec.Specialize.specialized sp)

let test_fallback_analysis_mode () =
  let program =
    Ir.(
      Program.make ~name:"t_specialize_analysis"
        ~state:[ { Ir.Program.instance = "ft"; kind = "flow_table" } ]
        [
          Stmt.assign "h" Expr.(load32 (int 26));
          Stmt.call ~ret:"r" "ft" "get" [ Expr.var "h"; Expr.var "now" ];
          Stmt.if_
            Expr.(var "r" != int 0)
            [ Stmt.forward Expr.(var "r" - int 1) ]
            [ Stmt.call "ft" "put" [ Expr.var "h" ]; Stmt.drop ];
        ])
  in
  let run engine =
    let meter = Exec.Meter.create (Hw.Model.null ()) in
    let mode = Exec.Interp.Analysis [ 3; 0 ] in
    let packet = Net.Packet.create 64 in
    let r =
      match engine with
      | `Interp -> Exec.Interp.run ~meter ~mode ~in_port:1 ~now:5 program packet
      | `Specialized ->
          let sp = Exec.Specialize.bind program ~meter ~mode in
          check_bool "analysis mode falls back" false
            (Exec.Specialize.specialized sp);
          Exec.Specialize.run sp ~in_port:1 ~now:5 packet
    in
    (r, Exec.Meter.observations meter)
  in
  check_bool "analysis run equal" true (run `Interp = run `Specialized)

(* A structure without fast paths — one added later, say — still runs:
   the stream falls back to the interpreter and agrees with it over a
   whole stateful replay.  The subject is the calls-in-loops program of
   [control_shapes] with its flow table's fast paths withheld. *)
let test_fallback_parity () =
  let entry =
    List.find
      (fun e -> e.Nf.Registry.name = "calls_in_loop")
      (control_shapes ())
  in
  let entry =
    {
      entry with
      Nf.Registry.setup =
        (fun alloc ->
          List.map
            (fun (name, ds) ->
              (name, Exec.Ds.make ~kind:ds.Exec.Ds.kind ds.Exec.Ds.call))
            (entry.Nf.Registry.setup alloc));
    }
  in
  check_bool "a call site without a fast path falls back" false
    (specializes Hw.Model.realistic entry);
  let stream =
    stream_of (List.init 120 (fun k -> (k land 1, flow (k * 7 mod 19))))
  in
  ignore
    (compare_replays ~hw:realistic ~ctx:"fallback/realistic" entry stream)

let suite =
  [
    Alcotest.test_case "golden vs interp, all NFs, jobs 1" `Slow
      (test_golden_all_nfs ~jobs:1);
    Alcotest.test_case "golden vs interp, all NFs, jobs 4" `Slow
      (test_golden_all_nfs ~jobs:4);
    Alcotest.test_case "every registry NF specializes" `Quick
      test_every_nf_specializes;
    Alcotest.test_case "parity on the null model" `Quick test_parity_null;
    Alcotest.test_case "parity on the conservative model" `Quick
      test_parity_conservative;
    Alcotest.test_case "parity across the whole registry" `Quick
      test_parity_all_nfs;
    Alcotest.test_case "nat stress parity" `Quick test_nat_stress_parity;
    Alcotest.test_case "bridge stress parity" `Quick test_bridge_stress_parity;
    Alcotest.test_case "every guard exit charge-exact" `Quick
      test_exit_coverage;
    Alcotest.test_case "rejoining arms, loops, calls inside" `Quick
      test_control_shapes;
    Alcotest.test_case "zero minor words per packet" `Quick test_zero_alloc;
    Alcotest.test_case "zero minor words on the NAT churn write path" `Quick
      test_churn_zero_alloc;
    Alcotest.test_case "stuck message parity" `Quick test_stuck_parity;
    Alcotest.test_case "tracing meter falls back" `Quick test_fallback_tracing;
    Alcotest.test_case "coupled-memory model specializes" `Quick
      test_coupled_specializes;
    Alcotest.test_case "coupled model sees interpreter access order" `Quick
      test_coupled_access_order;
    Alcotest.test_case "dslib fast paths match their metered twins" `Quick
      test_fast_path_twins;
    Alcotest.test_case "topology transits match the interpreter" `Quick
      test_topology_parity;
    Alcotest.test_case "analysis mode falls back" `Quick
      test_fallback_analysis_mode;
    Alcotest.test_case "fallback stream parity" `Quick test_fallback_parity;
  ]
