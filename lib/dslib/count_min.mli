(** Count-min sketch — approximate per-key rate accounting in constant
    space, the classic substrate for heavy-hitter detection in NFs.

    [d] rows of [w] counters; an update hashes the key once per row and
    increments one counter in each; the estimate is the minimum over the
    rows.  Every operation touches exactly [d] counters, so the method
    contract is branch-constant in [d] — a third contract shape beside
    the flow table's PCV polynomials and the token bucket's constants. *)

type t

val create : base:int -> rows:int -> width:int -> t
(** [rows] ≤ 8; [width] should be a power of two.  Raises
    [Invalid_argument] otherwise. *)

val rows : t -> int
val width : t -> int

val update : t -> Exec.Meter.t -> key:int array -> int
(** Increment the key's counters; returns the new min-estimate. *)

val estimate : t -> Exec.Meter.t -> key:int array -> int
val estimate_quiet : t -> int array -> int

val decay : t -> unit
(** Halve every counter (uncharged — done off the fast path on a timer,
    as NFs do). *)

val to_ds : t -> Exec.Ds.t
(** Methods: [update(k0..k4)] and [estimate(k0..k4)] over 5-word keys.
    Both carry fast paths. *)

val kind : string

module Recipe : sig
  val contract : rows:int -> Perf.Ds_contract.t list
end
