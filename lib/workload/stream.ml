type entry = { packet : Net.Packet.t; now : int; in_port : int }
type t = entry list

let entry ?(in_port = 0) ?(now = 1_000_000) packet = { packet; now; in_port }

let constant_rate ?(in_port = 0) ~start ~gap packets =
  List.mapi
    (fun i packet -> { packet; now = start + (i * gap); in_port })
    packets

let to_pcap t =
  List.map
    (fun { packet; now; _ } ->
      {
        Net.Pcap.ts_sec = now / 1_000_000;
        ts_usec = now mod 1_000_000;
        packet;
      })
    t

let of_pcap ?(in_port = 0) records =
  List.map
    (fun { Net.Pcap.ts_sec; ts_usec; packet } ->
      { packet; now = (ts_sec * 1_000_000) + ts_usec; in_port })
    records

let length = List.length
