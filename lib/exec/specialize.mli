(** Config-specialized, allocation-free compiled execution — the
    production engine ({!Interp} is the reference it is checked against).

    {!bind} freezes a program against one stream's concrete
    configuration — meter, mode and linked data-structure instances —
    and compiles it into closures with the remaining per-packet
    overhead hoisted to bind time: call sites resolve once to each
    structure's {!Ds.fast_path} (no generic dispatch, preallocated
    argv, keys read in place), each block becomes one fused closure
    chain whose exits — returns and guard arms alike — apply their
    whole path's static charge at once, and outcomes travel as int
    codes instead of exceptions.  The specialized fast body allocates
    zero minor words per packet in steady state.

    Specialization is charge-{e equivalent}, not charge-{e identical}:
    a path's static charges land only at its exit, so a [Stuck] packet
    can differ from the interpreter by the static charge of the path it
    had taken.  Completed packets are exact —
    same outcome, IC, MA, cycles and PCV observations (DESIGN §12).
    A model whose memory pricing reads the instruction count
    ({!Hw.Model.t.coupled_mem}) gets a body that lands, before every
    memory access, exactly what the interpreter charged before it —
    chosen at bind time, at no per-packet cost to other models.
    Packing cannot reproduce a per-event stream, so [bind]
    transparently falls back to a runner over {!Interp.run} whenever the
    meter traces events, the mode is [Analysis], or any call site lacks
    a fast path (every registry NF's call sites have one). *)

type t
(** A program bound to one stream's frozen configuration. *)

val bind : Ir.Program.t -> meter:Meter.t -> mode:Interp.mode -> t
(** Specialize a program against [meter] and [mode].  Falls back to the
    interpreter (see above) rather than failing — [bind] never raises. *)

val specialized : t -> bool
(** [true] when the stream runs the specialized zero-allocation body,
    [false] when it fell back to the interpreter. *)

val run : t -> ?in_port:int -> ?now:int -> Net.Packet.t -> Interp.run
(** Full-fidelity single-packet entry point: same result record as
    {!Interp.run}.  Allocates the [run] record (and, on specialized
    streams, nothing else); use {!exec} for the allocation-free hot
    loop. *)

val exec : t -> in_port:int -> now:int -> Net.Packet.t -> int
(** Allocation-free hot path: processes one packet, returning
    {!code_sent}, {!code_dropped} or {!code_flooded}.  On a
    specialized stream this allocates zero minor words in steady
    state — all labels are required precisely so no [Some] boxing
    happens at call sites.  A [Sent] packet's output port is read with
    {!out_port}.  Raises {!Interp.Stuck} like the interpreter would
    (charges already flushed).  Fallback streams service [exec] through
    the interpreter — correct, but not allocation-free. *)

val out_port : t -> int
(** Output port of the most recent {!exec} that returned
    {!code_sent}. *)

val outcome_of_code : t -> int -> Interp.outcome
(** Decode an {!exec} return code ({!code_sent} reads {!out_port}).
    Raises [Invalid_argument] on anything else. *)

val code_sent : int
val code_dropped : int
val code_flooded : int
