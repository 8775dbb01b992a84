(** The cost meter — this repository's stand-in for Intel Pin.

    Every instruction and memory access executed by the interpreter and by
    the stateful data-structure implementations is charged through a
    meter.  A meter wraps a hardware model (which prices the cycles) and
    optionally records the full event trace.  The BOLT analysis reads
    neither the trace nor a copy of it: it prices a witness replay as it
    runs (paper Alg. 2, lines 7–15), through the meter's marker hook.

    Meters also log PCV observations: each data-structure call reports the
    concrete values its PCVs took (collisions seen, entries expired…),
    which is exactly the instrumentation the Distiller relies on
    (paper §4). *)

type event =
  | E_instr of Hw.Cost.kind * int
  | E_mem of { addr : int; write : bool; dependent : bool }
  | E_call of { instance : string; meth : string; args : int array; ret : int }
  | E_loop_head of string  (** entering a PCV loop *)
  | E_loop_iter of string  (** starting one iteration *)
  | E_loop_exit of string
  | E_branch of bool
      (** one [If]/[Unroll] condition evaluation (suppressed inside PCV
          loops) — the replay's record of which symbolic path it actually
          followed *)

type marker =
  | Call of { instance : string; meth : string }
      (** a stateful call returned (analysis mode only) *)
  | Loop_head of string  (** entering a PCV loop *)
  | Loop_iter of string  (** starting one iteration *)
  | Loop_exit of string
(** The structural events a pricing pass needs to see as they happen.
    Instruction and memory charges are not markers: they go straight to
    the model, whose counters a hook may read. *)

type t

val create : ?trace:bool -> ?on_marker:(marker -> unit) -> Hw.Model.t -> t
(** [create model] makes a meter charging into [model].  [trace] (default
    [false]) additionally records the event list.  [on_marker] is called
    at each {!marker}, after every charge that precedes it in program
    order and before any that follows, so the model's counters read at
    that point are the cost so far. *)

val instr : t -> Hw.Cost.kind -> int -> unit
val mem : t -> ?write:bool -> ?dependent:bool -> int -> unit
val call_event : t -> instance:string -> meth:string -> args:int array ->
  ret:int -> unit
val branch : t -> bool -> unit
val loop_head : t -> string -> unit
val loop_iter : t -> string -> unit
val loop_exit : t -> string -> unit

val observe : t -> Perf.Pcv.t -> int -> unit
(** Log one PCV observation (one data-structure call's worth). *)

val tracing : t -> bool
(** Whether this meter records the event trace — clients with a cheaper
    charging discipline that cannot reproduce the per-event stream
    (e.g. {!Specialize}'s deferred instruction accounting) must fall back
    to event-faithful charging when this is set. *)

val coupled_mem : t -> bool
(** The wrapped model's {!Hw.Model.t.coupled_mem}: deferred [instr]
    charges must land before every [mem] charge they precede. *)

val model_instr : t -> Hw.Cost.kind -> int -> unit
(** The wrapped model's raw charge closure.  Bypasses the event trace,
    so only sound on a meter for which {!tracing} is [false]. *)

val model_instr_pack : t -> int array -> unit
(** The wrapped model's {!Hw.Model.t.instr_pack}; same caveat as
    {!model_instr}. *)

val model_mem : t -> addr:int -> write:bool -> dependent:bool -> unit
(** Raw memory-charge closure; same caveat as {!model_instr}. *)

val model_mem_bulk : t -> (int -> unit) option
(** The wrapped model's {!Hw.Model.t.mem_bulk}: [Some f] only when the
    model prices accesses independently of their address, so statically
    countable accesses may be batched. *)

val ic : t -> int
val ma : t -> int
val cycles : t -> int
val events : t -> event list
(** In program order; empty unless tracing. *)

val observations : t -> (Perf.Pcv.t * int) list
(** All observations, in program order. *)

val pcv_max : t -> Perf.Pcv.binding
(** Per-PCV maximum over the observations — the conservative binding to
    evaluate a contract at. *)

val pcv_sum : t -> Perf.Pcv.binding
val reset_observations : t -> unit
(** Clear observations (and trace), keeping cumulative costs — used
    between packets of a run. *)
