(** A coupled hardware model that logs every memory access.

    Its [mem] records the access — address, direction, dependence — with
    the instructions the model had been charged since the previous
    {!take} when the access arrived, and the model declares
    {!Hw.Model.t.coupled_mem}.  Taking the log after every packet makes
    each packet's log independent of the ones before it, so a [Stuck]
    packet (whose charges a specialized body may not land in full) does
    not shift the logs of the packets after it.  Two
    engines that charge the same per-kind totals but land them in a
    different order relative to the accesses produce different logs,
    which is exactly the exactness a model like {!Hw.Realistic} (whose
    burst window reads the running count) depends on — and which a
    per-packet IC/MA/cycles comparison cannot see. *)

type access = { addr : int; write : bool; dependent : bool; ic : int }
(** [ic]: instructions charged between the previous {!take} and this
    access. *)

type t

val create : unit -> t
val model : t -> Hw.Model.t

val take : t -> access list
(** The accesses since the previous [take] (or {!create}), in order. *)

val pp_access : Format.formatter -> access -> unit
