(** Scalability-contract validation: predict aggregate throughput at N
    shards from the per-packet contract, then measure it.

    For each shard count the runner derives a {!Perf.Scale.t} — the
    per-packet worst-case cycles from the NF's own BOLT analysis (every
    PCV bound to the bench convention's adversarial value), the
    dispatcher's modelled cost ({!Dispatch.cost_vec}), and the skew term
    from the workload's real steering histogram — and validates it three
    ways: the parallel replay must be bit-identical to the serial one,
    the shards-N outcomes must match the shards-1 reference, and the
    predicted aggregate pps (anchored at the measured single-shard rate)
    is compared against the measured parallel drain.

    {!run_suite} is the one driver behind [bench scale] and
    [bolt scale]: it runs every NF, the dispatcher-affinity oracles and
    the gates, so both front-ends reach the same verdict.  Speedup and
    error-bound gates are armed only when
    [Domain.recommended_domain_count () >= 2]: on a 1-core container the
    contract itself predicts {e no} speedup (the [1/cores] floor), so
    only the parity and affinity gates are meaningful there. *)

type level = {
  shards : int;
  contract : Perf.Scale.t;
  predicted_pps : float;
  measured_pps : float;
  parity_ok : bool;
      (** parallel ≡ serial replay, and shards-N ≡ shards-1 outcomes *)
  error_pct : float;  (** [(predicted - measured) / measured * 100] *)
}

type result = {
  nf : string;
  packets : int;
  cores : int;  (** [Domain.recommended_domain_count ()] at run time *)
  baseline_pps : float;  (** measured single-shard drain rate *)
  per_packet_cycles : int;
  dispatch_cycles : int;
  levels : level list;
}

val default_nfs : string list
(** The NFs the scale bench exercises: firewall (stateless), nat
    (sliced port namespace), maglev (flow affinity + heartbeat
    broadcast). *)

val workload : nf:string -> seed:int -> packets:int -> Workload.Stream.t
(** The per-NF steering workload: distinct flows for the firewall,
    internal flows for the NAT, backend heartbeats followed by client
    flows for maglev. *)

val best_of : reps:int -> (unit -> float) -> float
(** [best_of ~reps f] is the minimum of [reps] calls of [f] (a
    wall-clock timing), [infinity] when [reps <= 0]. *)

val run :
  ?levels:int list ->
  ?packets:int ->
  ?reps:int ->
  ?seed:int ->
  string ->
  result
(** [run nf] with [levels] defaulting to [[1; 2; 4]], [packets] to
    [4096], [reps] to [3] (each level's drain is best-of-[reps] on a
    fresh engine, so no rep inherits another's table state). *)

val to_json : result -> Perf.Json.t
(** Includes the {!Perf.Provenance} block — scale numbers from a 1-core
    container must be self-describing. *)

val pp : Format.formatter -> result -> unit

(** {1 The scale suite} *)

type suite = {
  cores : int;  (** [Domain.recommended_domain_count ()] at run time *)
  results : result list;  (** one per NF, in the order given *)
  affinity : Oracle.report list;  (** conntrack, then NAT *)
  failures : string list;  (** correctness failures, see {!verdict} *)
  misses : string list;  (** performance misses, see {!verdict} *)
}

val error_bound_pct : float
(** The prediction-error bound at 2 shards: 50%. *)

val verdict :
  cores:int -> result list -> Oracle.report list -> string list * string list
(** [(failures, misses)].  Failures, always checked: every level whose
    [parity_ok] is false (per NF, then per level), then one message if
    any affinity oracle found a violation.  Misses, only when
    [cores >= 2], for each NF with a 2-shard level: no speedup over the
    baseline, then a prediction error beyond {!error_bound_pct}. *)

val run_suite :
  ?levels:int list ->
  ?packets:int ->
  ?reps:int ->
  ?seed:int ->
  string list ->
  suite
(** {!run} on each NF, then the conntrack and NAT affinity oracles at
    [max 2 (max levels)] shards, then {!verdict}.  Raises
    [Invalid_argument] on an NF the dataplane cannot shard. *)

val suite_json : suite -> (string * Perf.Json.t) list
(** The artifact's fields: [artifact], [cores],
    [error_bound_pct_at_2_shards], [nfs] ({!to_json} each) and
    [affinity]; the front-end adds provenance. *)

val pp_suite : Format.formatter -> suite -> unit
(** Every result, the affinity-oracle lines and, on one core, a note
    that the performance gates are disarmed. *)
