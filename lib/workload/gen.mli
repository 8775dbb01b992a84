(** Workload generators for the paper's input packet classes. *)

val flow : Prng.t -> ?proto:int -> unit -> Net.Flow.t
(** A random internal-network flow (10.0.0.0/16 sources). *)

val distinct_flows : Prng.t -> ?proto:int -> int -> Net.Flow.t list
(** n flows with distinct 5-tuples; raises [Invalid_argument] if
    [n < 0]. *)

val packets_of_flows : Net.Flow.t list -> Net.Packet.t list

(** {1 Bridge traffic} *)

val mac : Prng.t -> int
val broadcast_frames : Prng.t -> srcs:int list -> int -> Net.Packet.t list
(** Frames to ff:ff:…, with sources drawn round-robin from [srcs]. *)

val unicast_frames :
  Prng.t -> srcs:int list -> dsts:int list -> int -> Net.Packet.t list

(** {1 Load-balancer traffic} *)

val heartbeat_frames : backend_ids:int list -> port:int -> Net.Packet.t list
(** One heartbeat per backend (source 10.1.0.b, UDP dst [port]). *)

(** {1 Churn}

    A stream alternating between a pool of live flows and newly created
    ones; [new_flow_prob] controls churn (paper §5.3: low churn = many
    long-lived flows, high churn = few short-lived ones). *)

val churn :
  Prng.t -> pool:int -> packets:int -> new_flow_prob:float -> gap:int ->
  start:int -> Stream.t

(** {1 Mutation} *)

val mutate : Prng.t -> Net.Packet.t -> Net.Packet.t
(** A copy of the packet with 1–4 random bytes rewritten — the fuzzer's
    header-corruption generator.  The buffer length is preserved, so the
    result is still safe to feed any NF that bounds-checks with
    [Pkt_len]. *)

(** {1 LPM traffic} *)

val lpm_destinations :
  Prng.t -> Dslib.Lpm_dir24_8.t -> long:bool -> int -> Net.Packet.t list
(** Destinations forced onto the two-lookup ([long]) or one-lookup path —
    the CASTAN-style adversarial generator for LPM1. *)
