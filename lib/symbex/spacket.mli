(** The symbolic packet.

    Input bytes are fresh symbols, created lazily and shared by all the
    paths of one engine run (and by chained NFs — see [Topo.Analysis]), so
    input-class predicates and path constraints talk about the same
    symbols.  Writes are tracked per path in a functional overlay, so a
    path's view of the packet after rewriting is the symbolic output
    packet §3.4 composes on. *)

type input
(** The shared input layer: byte symbols + the length symbol. *)

val input : Solver.Sym.gen -> ?min_len:int -> ?max_len:int -> unit -> input

val concrete_input : Solver.Sym.gen -> Net.Packet.t -> input
(** A fully-concrete input: the length is pinned and loads at concrete
    in-bounds offsets return the packet's actual bytes as concrete
    values, so every branch condition folds and exactly one path is
    feasible.  An out-of-bounds load contributes [False] — the concrete
    interpreter is stuck there, and the path must die with it.  Used by
    the [concrete_symbex_agreement] differential oracle. *)

val len_sym : input -> Solver.Sym.t
val byte_sym : input -> int -> Solver.Sym.t
(** The symbol for input byte [i] (created on first use). *)

val known_bytes : input -> (int * Solver.Sym.t) list

type view
(** A per-path packet state: the input plus this path's writes. *)

val view : input -> view
val input_of_view : view -> input

val load : view -> Value.ctx -> Ir.Expr.width -> offset:Value.t ->
  Value.t * Solver.Constr.t list
(** Read a field.  A concrete offset yields the (possibly written-over)
    big-endian combination of the byte symbols plus the bounds constraint
    [offset + width <= len]; a symbolic offset yields a fresh bounded
    symbol. *)

val store : view -> Value.ctx -> Ir.Expr.width -> offset:Value.t ->
  value:Value.t -> view
(** Write a field.  A symbolic offset invalidates the whole overlay
    (conservative). *)

val length : view -> Value.t

val writes : view -> (int * (Ir.Expr.width * Value.t)) list
(** This path's overlay, keyed by concrete offset. *)

val output_load : view -> Value.ctx -> Ir.Expr.width -> offset:int -> Value.t
(** What a downstream NF reading [offset] would see — used for chain
    composition. *)
