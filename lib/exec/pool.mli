(** A fixed-size domain pool with a deterministic ordered [map].

    The pool backs the parallel BOLT pipeline: per-path witness solving
    and concrete replay, and the evaluation-scenario loop.  Results are
    returned in input order and exceptions are re-raised for the
    lowest-indexed failing item, so output is independent of how the
    items were scheduled across domains. *)

val default_jobs : unit -> int
(** The [BOLT_JOBS] environment variable if set to a positive integer,
    otherwise [Domain.recommended_domain_count ()]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?jobs f items] is [List.map f items], computed on
    [min jobs (length items)] domains (default {!default_jobs}).
    [jobs <= 1] runs serially in the calling domain, with no spawns.

    [f] is applied at most once per item.  It must not share mutable
    state across items unless that state is itself domain-safe: create
    meters, hardware models and RNGs per call.  If several items raise,
    the exception of the lowest-indexed one is re-raised (with its
    backtrace) after all domains have joined. *)

(** Long-lived worker domains for repeated fan-out over the same
    indices — the dataplane's shard loops.  Spawning and joining domains
    on every call would be milliseconds of overhead a timed drain must
    not see; [Workers] pays the spawn once at {!Workers.create} and parks
    the domains on a condition variable between jobs.  There is no clamp
    to the hardware thread count: callers decide how many shards to
    stand up. *)
module Workers : sig
  type t

  val create : int -> t
  (** [create extra] spawns [extra] parked worker domains serving
      indices [1 .. extra]; index 0 always runs on the calling domain,
      so a [create (shards - 1)] pool drives a [shards]-way engine. *)

  val size : t -> int
  (** Total worker count including the caller's index 0. *)

  val run : t -> (int -> unit) -> unit
  (** [run t f] executes [f i] for every index concurrently ([f 0] on
      the calling domain) and returns when all are done.  If several
      indices raise, the lowest one's exception is re-raised with its
      backtrace.  Raises [Invalid_argument] after {!stop}. *)

  val stop : t -> unit
  (** Join all worker domains.  Idempotent; {!run} is invalid after. *)
end
