(** Concrete stateful data-structure instances.

    The production build of an NF links its stateless code against real
    data structures; this record is the linking interface.  A call charges
    its own costs (instructions, memory accesses at the instance's
    addresses, PCV observations) into the meter it is handed. *)

type sink = {
  s_counts : int array;
      (** Deferred per-kind instruction counters, indexed by
          {!Hw.Cost.kind_index} (length {!Hw.Cost.nkinds}).  A fast path
          bumps these instead of calling [Meter.instr]; the compiled
          runner flushes them into the model at packet exits. *)
  s_mem : addr:int -> write:bool -> dependent:bool -> unit;
      (** Memory-access charge, applied at the access point (addresses
          matter to some models).  On a model whose [mem] reads the
          instruction count ({!Hw.Model.t.coupled_mem}) it first lands
          [s_counts], so a fast path must bump the counters in the same
          order, relative to its accesses, as its metered twin
          charges. *)
  s_mem_batched : bool;
      (** When [true], the model prices accesses independently of their
          address and [s_counts] has one extra slot at index
          {!Hw.Cost.nkinds}: fast paths may bump it instead of calling
          [s_mem], and the runner retires the batch at flush. *)
  s_meter : Meter.t;
      (** For PCV observations {e only} — fast paths must not charge
          instructions or memory through it. *)
}
(** The charging surface handed to a specialized fast path: the same
    deferred-charge discipline as {!Compiled}'s fast body, exposed so a
    data structure's inlined method can charge exactly what its generic
    [call] would, without the meter's per-event dispatch. *)

type t = {
  kind : string;  (** must match the program's state declaration *)
  call : Meter.t -> string -> int array -> int;
      (** [call meter meth args] executes the method and returns its
          result.  Raises [Invalid_argument] on unknown methods or
          malformed arguments — those are NF programming errors. *)
  fast_path : sink -> string -> (int array -> int) option;
      (** [fast_path sink meth] is [Some f] when the structure offers a
          specialized implementation of [meth]: [f args] must be
          observationally identical to [call meter meth args] — same
          result, same state mutation, same PCV observations, and the
          same instruction/memory charges (routed through [sink]).
          [None] means the caller must keep the generic dispatch. *)
}

type env = (string * t) list
(** Instance name → implementation, the "link map" for a program. *)

val make :
  ?fast_path:(sink -> string -> (int array -> int) option) ->
  kind:string ->
  (Meter.t -> string -> int array -> int) ->
  t
(** [make ~kind call] builds an instance; [fast_path] defaults to
    offering no specialized methods. *)

val find : env -> string -> t
(** Raises [Invalid_argument] when the instance is not linked. *)
