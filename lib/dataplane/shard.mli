(** The sharded execution engine: one specialized runner per shard over
    shard-local dslib state, fed by {!Dispatch} steering.

    Each shard is built independently through the normal registry path —
    {!Nf.Registry.of_spec} on its slice of the plan, then
    {!Nf.Registry.specialize} against a private meter — so shards share
    {e no} mutable state: not tables, not meters, not allocators.  That
    is the whole correctness argument for running them on separate
    domains, and it is what the affinity oracle checks from the outside.

    Two replay guarantees, both bit-level:
    - parallel ≡ serial at the same shard count: steering is pure and
      per-shard arrival order is preserved, so each shard's state
      machine consumes the identical subsequence either way;
    - shards-N ≡ shards-1 per packet for outcome and egress port
      whenever the steering policy matches the NF's state keying (the
      oracle's job); packet {e bytes} additionally match for every NF
      except the NAT, whose shards allocate from disjoint port slices.

    Broadcast entries (load-balancer heartbeats) are handed to every
    shard as private copies made during partitioning; the merged replay
    reports shard 0's outcome for them. *)

type t

type result = {
  index : int;  (** position in the input stream *)
  shard : int;  (** executing shard ([0] for broadcast entries) *)
  outcome : Exec.Interp.outcome;
  ic : int;
  ma : int;
  bytes : string;  (** packet bytes after processing *)
}

val create : Plan.t -> t
val plan : t -> Plan.t

val stop : t -> unit
(** Join the engine's worker domains (spawned lazily on the first
    parallel call).  Idempotent; a later parallel call respawns them. *)

val with_engine : Plan.t -> (t -> 'a) -> 'a
(** [create] / run / {!stop}, exception-safe.  Prefer this: engines that
    are never stopped hold a parked domain per extra shard until process
    exit, and the runtime caps live domains. *)

val replay : ?parallel:bool -> t -> Workload.Stream.t -> result array
(** Full-fidelity replay, results in stream order.  [parallel] (default
    [false]) partitions the stream and runs each shard's slice on its
    own parked {!Exec.Pool.Workers} domain; the results are identical to
    the serial walk by construction.  Shard state persists across calls
    ([create] a fresh engine for an independent replay). *)

val step :
  t -> in_port:int -> now:int -> Net.Packet.t -> int * Exec.Interp.run * Net.Packet.t
(** Single-packet entry point for online oracles: steers a private copy
    of the packet, runs it on the owning shard, and returns the shard
    index, the run record, and the (possibly rewritten) copy.
    Broadcast packets run on every shard; shard 0's run is returned. *)

val drain : ?parallel:bool -> t -> Workload.Stream.t -> float
(** Throughput-mode replay: the allocation-free {!Exec.Specialize.exec}
    loop, returning the elapsed seconds of the timed region.  The timed
    region covers exactly what the scalability contract prices: the
    steering pass (skipped at one shard — a single shard bypasses the
    dispatcher) plus the per-shard execution loops.  Packet copies are
    made before the clock starts. *)

val load_histogram : Plan.t -> Workload.Stream.t -> int array
(** Packets steered to each shard (broadcast entries count once per
    shard) — the workload's flow-hash histogram, input to the
    scalability contract's skew term. *)

val pp_result : Format.formatter -> result -> unit
