(** A realistic hardware simulator, standing in for the paper's testbed.

    The paper measures ground-truth cycles on a Xeon E5-2667v2; we have no
    hardware, so "measured" cycles come from this simulator instead.  It
    models exactly the proprietary features the conservative model omits —
    warm multi-level caches, a next-line hardware prefetcher, memory-level
    parallelism across independent misses, and superscalar retirement —
    which is what produces the paper's 2–9× gap between the conservative
    bound and reality (paper Table 3 and the P1/P2/P3 experiment). *)

type t

val create : unit -> t
(** Fresh simulator with cold caches.  Caches stay warm across packets,
    as on real hardware; create one per scenario and feed it the whole
    packet sequence. *)

val instr : t -> Cost.kind -> int -> unit
(** Instructions retire superscalar; a deterministic fraction of branches
    mispredicts and pays a pipeline-flush penalty. *)

val instr_pack : t -> int array -> unit
(** [instr_pack t counts] charges [counts.(Cost.kind_index k)]
    instructions of every kind [k] at once — priced exactly as one
    {!instr} call per kind. *)

val mem : t -> addr:int -> write:bool -> dependent:bool -> unit
(** [dependent] marks an access whose address depends on the previous
    load (pointer chasing); dependent misses cannot overlap. *)

val packet_boundary : t -> regions:(int * int) list -> unit
(** A new packet arrived by DMA: evict the given [(base, size)] regions
    from L1/L2 and park them in L3 (DDIO), as NIC writes do on real
    hardware.  When the regions are those of the previous call, only the
    region lines {!mem} has touched since are evicted — the others are
    not cached in L1/L2 — at the same result. *)

val probe : t -> int -> bool * bool * bool
(** Whether the line holding the address is in L1, L2 and L3; changes no
    state. *)

val cycles : t -> int
val instr_count : t -> int
val mem_count : t -> int
