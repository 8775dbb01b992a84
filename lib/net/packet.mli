(** Raw packet buffers.

    A packet is a mutable byte buffer with network-byte-order accessors.
    All multi-byte accessors are big-endian, as on the wire.  Offsets are
    bounds-checked; accessors raise [Invalid_argument] on overrun. *)

type t

val create : int -> t
(** [create len] is a zero-filled packet of [len] bytes.  Raises
    [Invalid_argument] if [len < 0] or [len > 65535]. *)

val of_bytes : bytes -> t
val to_bytes : t -> bytes
(** A copy of the packet's contents. *)

val copy : t -> t
val length : t -> int

val get_u8 : t -> int -> int
val get_u16 : t -> int -> int
val get_u32 : t -> int -> int
val get_u48 : t -> int -> int
(** 48-bit big-endian load — MAC addresses. *)

val set_u8 : t -> int -> int -> unit
val set_u16 : t -> int -> int -> unit
val set_u32 : t -> int -> int -> unit
val set_u48 : t -> int -> int -> unit

val peek_u8 : t -> int -> int
val peek_u16 : t -> int -> int
val peek_u32 : t -> int -> int
val peek_u48 : t -> int -> int
(** [get_u*] without the exception: [-1] when the field does not lie
    within the packet.  For hot loops that raise their own error. *)

val poke_u8 : t -> int -> int -> bool
val poke_u16 : t -> int -> int -> bool
val poke_u32 : t -> int -> int -> bool
val poke_u48 : t -> int -> int -> bool
(** [set_u*] without the exception: [false], packet untouched, when the
    field does not lie within the packet. *)

val bounds_message : t -> int -> int -> string
(** [bounds_message t off width] is the [Invalid_argument] message the
    checked accessors raise for a [width]-byte access at [off]. *)

val get : t -> Ir.Expr.width -> int -> int
(** Width-dispatched load: [get t w off] is the big-endian [w]-wide
    field at [off].  The single accessor behind every IR [Pkt_load]. *)

val set : t -> Ir.Expr.width -> int -> int -> unit
(** Width-dispatched store; values wider than [w] are truncated to the
    low [w] bits (byte-wise masking, as the per-width setters do). *)

val blit_string : string -> t -> int -> unit
val equal : t -> t -> bool
val pp_hex : Format.formatter -> t -> unit
