(** Patricia-trie LPM — the paper's running example (§2.1, Algorithm 1).

    The lookup walks the destination address bit by bit from the most
    significant end; its cost is linear in the matched prefix length [l],
    the PCV of the stylised contracts of Tables 1 and 2.  The charging is
    calibrated so the method costs are {e exactly} the paper's
    [4·l + 2] instructions and [l + 1] memory accesses. *)

type t

val create : base:int -> default_port:int -> t
val add_route : t -> prefix:int -> len:int -> port:int -> unit
(** Configuration-time (uncharged); [len] in 0..32. *)

val lookup : t -> Exec.Meter.t -> int -> int
(** Longest-prefix-match port.  Observes PCV [l]. *)

val lookup_quiet : t -> int -> int
val matched_len : t -> int -> int
(** Depth at which the walk for this address stops (uncharged). *)

val footprint_bytes : t -> int
(** Bytes of the layout's address space the trie occupies: one 64-byte
    node per line, root included. *)

val to_ds : t -> Exec.Ds.t
(** Method: [lookup(dst_ip)], with a fast path. *)

val kind : string

module Recipe : sig
  val lookup_cost : Perf.Cost_vec.t
  (** [4·l + 2] instructions, [l + 1] accesses — paper Table 2. *)

  val contract : Perf.Ds_contract.t list
end
