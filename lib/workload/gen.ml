let flow rng ?proto () =
  let proto =
    match proto with
    | Some p -> p
    | None ->
        if Prng.bool rng 0.5 then Net.Ipv4.proto_tcp else Net.Ipv4.proto_udp
  in
  Net.Flow.make
    ~src_ip:(Net.Ipv4.addr_of_parts 10 0 (Prng.below rng 256) (Prng.below rng 256))
    ~dst_ip:(Net.Ipv4.addr_of_parts 93 (Prng.below rng 256) (Prng.below rng 256) (Prng.below rng 256))
    ~src_port:(Prng.range rng ~lo:1024 ~hi:65535)
    ~dst_port:(Prng.range rng ~lo:1 ~hi:1023)
    ~proto

let distinct_flows rng ?proto n =
  if n < 0 then invalid_arg "Gen.distinct_flows: negative count";
  let seen = Hashtbl.create n in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else
      let f = flow rng ?proto () in
      if Hashtbl.mem seen f then draw acc k
      else begin
        Hashtbl.add seen f ();
        draw (f :: acc) (k - 1)
      end
  in
  draw [] n

let packets_of_flows flows = List.map (fun f -> Net.Build.udp_of_flow f) flows

let mac rng = 0x020000000000 lor Prng.below rng 0xffffffff

let broadcast_frames rng ~srcs n =
  let srcs = Array.of_list srcs in
  List.init n (fun i ->
      ignore rng;
      Net.Build.eth
        ~src_mac:srcs.(i mod Array.length srcs)
        ~dst_mac:Net.Ethernet.broadcast_mac
        ~ethertype:Net.Ethernet.ethertype_ipv4 ())

let unicast_frames rng ~srcs ~dsts n =
  let srcs = Array.of_list srcs and dsts = Array.of_list dsts in
  List.init n (fun _ ->
      Net.Build.eth
        ~src_mac:srcs.(Prng.below rng (Array.length srcs))
        ~dst_mac:dsts.(Prng.below rng (Array.length dsts))
        ~ethertype:Net.Ethernet.ethertype_ipv4 ())

let heartbeat_frames ~backend_ids ~port =
  List.map
    (fun b ->
      Net.Build.udp
        ~src_ip:(Net.Ipv4.addr_of_parts 10 1 0 b)
        ~dst_ip:(Net.Ipv4.addr_of_parts 198 51 100 1)
        ~src_port:4000 ~dst_port:port ())
    backend_ids

let churn rng ~pool ~packets ~new_flow_prob ~gap ~start =
  let live = Array.init pool (fun _ -> flow rng ()) in
  List.init packets (fun i ->
      let f =
        if Prng.bool rng new_flow_prob then begin
          (* a new flow replaces a random live one *)
          let slot = Prng.below rng pool in
          let f = flow rng () in
          live.(slot) <- f;
          f
        end
        else live.(Prng.below rng pool)
      in
      {
        Stream.packet = Net.Build.udp_of_flow f;
        now = start + (i * gap);
        in_port = 0;
      })

let mutate rng packet =
  let p = Net.Packet.copy packet in
  let len = Net.Packet.length p in
  if len > 0 then begin
    let flips = 1 + Prng.below rng 4 in
    for _ = 1 to flips do
      let off = Prng.below rng len in
      Net.Packet.set_u8 p off (Prng.below rng 256)
    done
  end;
  p

let lpm_destinations rng lpm ~long n =
  let rec draw acc k guard =
    if k = 0 || guard = 0 then List.rev acc
    else
      let dst =
        Net.Ipv4.addr_of_parts (Prng.below rng 224) (Prng.below rng 256)
          (Prng.below rng 256) (Prng.below rng 256)
      in
      if Dslib.Lpm_dir24_8.uses_tbl8 lpm dst = long then
        draw (dst :: acc) (k - 1) (guard - 1)
      else draw acc k (guard - 1)
  in
  let dsts = draw [] n 1_000_000 in
  List.map
    (fun dst ->
      Net.Build.udp
        ~src_ip:(Net.Ipv4.addr_of_parts 10 0 0 1)
        ~dst_ip:dst ~src_port:5000 ~dst_port:80 ())
    dsts
