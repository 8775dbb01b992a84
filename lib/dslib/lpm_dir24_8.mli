(** DPDK-style two-tiered LPM table (dir-24-8, paper §5.1 "LPM").

    Any packet whose longest matching prefix is ≤ 24 bits costs exactly one
    table lookup; longer matches cost exactly two — which is why the
    paper's LPM has just two interesting input classes (LPM2 vs LPM1). *)

type t

val create : base:int -> default_port:int -> t

val add_route : t -> prefix:int -> len:int -> port:int -> unit
(** Configuration-time (uncharged).  [len] in 10..32; routes with
    [len > 24] allocate a second-tier group for their /24. *)

val lookup : t -> Exec.Meter.t -> int -> int
(** Output port for a destination address.  Observes PCV [l] (the matched
    prefix length rounded to the tier: 24 or 32). *)

val lookup_quiet : t -> int -> int
val uses_tbl8 : t -> int -> bool
(** Does this destination take the two-lookup path?  (tests/workloads) *)

val footprint_bytes : t -> int
(** Bytes of the layout's address space this table occupies: the fixed
    16 MiB first tier plus 256 B per allocated second-tier group. *)

val to_ds : t -> Exec.Ds.t
(** Method: [lookup(dst_ip)], with a fast path. *)

val kind : string

module Recipe : sig
  val contract : Perf.Ds_contract.t list
  (** Branches: ["short"] (one lookup) and ["long"] (two lookups). *)
end
