(** Timed packet streams — what the traffic generator replays into an NF
    (the MoonGen stand-in). *)

type entry = { packet : Net.Packet.t; now : int; in_port : int }
type t = entry list

val entry : ?in_port:int -> ?now:int -> Net.Packet.t -> entry

val constant_rate : ?in_port:int -> start:int -> gap:int ->
  Net.Packet.t list -> t
(** Stamp packets [gap] time units apart, beginning at [start]. *)

val to_pcap : t -> Net.Pcap.record list
val of_pcap : ?in_port:int -> Net.Pcap.record list -> t
val length : t -> int
