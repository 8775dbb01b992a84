(** First-class hardware models.

    The interpreter and the trace analysis are parametric in the cycle
    model; this record packages {!Conservative} and {!Realistic} behind
    one interface. *)

type t = {
  name : string;
  instr : Cost.kind -> int -> unit;
  instr_pack : int array -> unit;
      (** [instr_pack counts] charges [counts.(Cost.kind_index k)]
          instructions of every kind [k] in one call — exactly one
          {!instr} call per non-zero kind.  [counts] may be longer than
          {!Cost.nkinds}; only the first {!Cost.nkinds} entries are
          read. *)
  mem : addr:int -> write:bool -> dependent:bool -> unit;
  cycles : unit -> int;
  instr_count : unit -> int;
  mem_count : unit -> int;
  boundary : (int * int) list -> unit;
      (** Per-packet hook: the given [(base, size)] regions were rewritten
          by DMA.  No-op except in the realistic simulator. *)
  mem_bulk : (int -> unit) option;
      (** [Some f] when the model prices every access identically —
          ignoring address, direction and dependence — with [f n]
          equivalent to [n] individual {!mem} charges.  Lets a client
          with statically countable accesses batch them like deferred
          instruction charges.  [None] for address-sensitive models
          (L1 tracking, burst windows), whose clients must report each
          access at its real address. *)
  coupled_mem : bool;
      (** [mem] reads instruction-count state (the realistic simulator's
          burst-window overlap detection), so a client that batches
          deferred [instr] charges must land every instruction the
          interpreter would have charged before an access ahead of that
          access's [mem] charge — {!Exec.Specialize} cuts its static
          packs there and lands its fast paths' deferred counters.
          [instr] itself is linear in its count argument in every model
          and nothing but [mem] reads the running count, so charges of
          any kinds may be merged freely between memory accesses (one
          {!instr_pack} per cut). *)
}

val conservative : unit -> t
(** Fresh cold conservative model (one per analysed path). *)

val realistic : unit -> t
(** Fresh realistic simulator (one per scenario; stays warm). *)

val of_realistic : Realistic.t -> t
(** Wrap an existing simulator so its warm state is shared across
    packets. *)

val null : unit -> t
(** A fresh counter-only model: counts instructions and accesses but
    charges no cycles — for runs where only IC/MA matter. *)

val dram_only : unit -> t
(** An even more conservative model than {!conservative}: every memory
    access is priced at DRAM latency, with no attempt to prove L1 hits.
    Exists for the hardware-model ablation — it quantifies how much the
    paper's L1 locality tracking (§3.5) buys. *)
