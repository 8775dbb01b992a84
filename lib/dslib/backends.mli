(** Value-level backend registry.

    Each abstraction the NFs consume lists its interchangeable
    implementations as first-class choice values and maps a choice to
    everything an [Nf.Spec] needs: the ds [kind] a program's state
    declaration names, the contract recipe the pipeline prices against,
    a constructor, and a memory footprint model derived from the same
    layout constants the charged address arithmetic uses — so an
    autotuner can compare backends analytically, without running them. *)

type lpm = [ `Dir24_8 | `Trie ]
type alloc = [ `Dll | `Array ]
type map = [ `Flow ]

(** Longest-prefix-match tables: DPDK's dir-24-8 (constant-time, 16 MiB
    first tier) vs the paper's Patricia trie (linear in matched prefix
    length, 64 B per node). *)
module Lpm : sig
  type choice = lpm

  val all : choice list
  val name : choice -> string
  val of_name : string -> choice
  (** Inverse of [name]; raises [Invalid_argument] on unknown names. *)

  val kind : choice -> string
  (** The ds kind an [Ir.Program] state declaration names. *)

  val contract : choice -> Perf.Ds_contract.t list

  type repr = Dir24_8 of Lpm_dir24_8.t | Trie of Lpm_trie.t
  type instance = { choice : choice; ds : Exec.Ds.t; repr : repr }

  val create : choice -> base:int -> default_port:int -> instance
  val add_route : instance -> prefix:int -> len:int -> port:int -> unit
  val footprint_bytes : instance -> int
end

(** NAT port allocators (paper §5.3): doubly-linked free list vs scanned
    flag array. *)
module Alloc : sig
  type choice = alloc

  val all : choice list
  val name : choice -> string
  val of_name : string -> choice
  val create : choice -> base:int -> port_lo:int -> port_hi:int -> Port_alloc.t
  val footprint_bytes : choice -> ports:int -> int
end

(** Flow maps.  One production implementation today ([`Flow], the
    expiring {!Flow_table}); the footprint model is shared by every NF
    built on it. *)
module Flows : sig
  type choice = map

  val all : choice list
  val name : choice -> string
  val of_name : string -> choice
  val footprint_bytes : choice -> capacity:int -> buckets:int -> int
end

val nat_footprint_bytes :
  alloc:alloc -> capacity:int -> buckets:int -> ports:int -> int
(** Flow table + 8 B/port reverse map + the chosen allocator. *)
