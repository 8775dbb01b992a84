(** A memoizing, domain-safe front-end to {!Solve}.

    Verdicts are keyed on a normalized (sorted, deduplicated, [True]-
    free) fingerprint of the constraint set together with the solver
    budgets, and computed by solving that normalized set — so a cached
    answer is a pure function of its key, whichever domain asked first.
    The symbolic engine's per-fork feasibility checks and packet-class
    matching re-solve many identical sets; this cache collapses them to
    one solve each.  Those checks go through {!feasible}, which solves
    only the slice of the constraint set that shares symbols with what
    the check adds.

    The table is global to the process, protected by a mutex, and
    bounded: past {!set_capacity} entries (default 32768), inserts evict
    with a second-chance (clock) policy that approximates LRU in O(1)
    amortized time.  Evicting forgets a verdict but never changes one —
    re-querying an evicted key re-solves to the identical answer — so
    analysis output is the same at any capacity. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  fingerprints : int;
      (** structural hashes computed — exactly one per lookup.  Keys
          store their fingerprint, so table probes compare the
          precomputed word verbatim instead of re-walking the
          constraint tree per probe. *)
}

val check :
  ?max_conjuncts:int -> ?max_nodes:int -> Constr.t list -> Solve.result
(** Memoized {!Solve.check} (same budget defaults).  The verdict — and
    for [Sat] the model — is that of the normalized constraint set,
    which is equisatisfiable with the input. *)

val is_sat : ?max_conjuncts:int -> ?max_nodes:int -> Constr.t list -> bool
(** Memoized {!Solve.is_sat}; shares {!check}'s table, so a [check]
    followed by [is_sat] on the same set costs one solve. *)

val feasibility_max_conjuncts : int
(** The one feasibility budget's DNF cap: 512 conjuncts.  Every fork,
    topology edge and class test is judged under it, through
    {!feasible}. *)

val feasibility_max_nodes : int
(** The feasibility budget's search-tree cap per conjunct: 4000 nodes. *)

val slice : known:Constr.t list -> Constr.t list -> Constr.t list
(** [slice ~known extra] is [extra] together with the constraints of
    [known] that share a symbol with it, closed transitively (a
    constraint over [a, b] pulls in every constraint over [b]), and every
    symbol-free constraint of [known].  Symbols are identified by id. *)

val feasible : known:Constr.t list -> Constr.t list -> bool
(** [feasible ~known extra] is whether [known @ extra] is satisfiable,
    given that [known] has already been accepted: it solves only
    {!slice}[ ~known extra], through the table, under the feasibility
    budget, and adds the number of [known] constraints left out to the
    [solver.slice_dropped] counter.

    Precondition: [known] is satisfiable.  The constraints left out
    then mention none of the slice's symbols, so a model of [known] and
    a model of the slice combine into one of [known @ extra], and the
    verdict is that of the whole set whenever the whole set's is
    decided; a check the whole set would leave [Unknown] may come out
    decided on the smaller slice.  [Unknown] counts as satisfiable, as
    in {!is_sat}. *)

val stats : unit -> stats
(** Cumulative hit/miss/eviction counters since start or the last
    {!reset}. *)

val hit_rate : stats -> float
(** Hits over total lookups, in [0, 1]; [0.] when no lookups. *)

val mean_probe_cost : stats -> float
(** Fingerprint computations per lookup; [1.0] exactly when every
    lookup hashed its constraint set once (the invariant the
    fingerprinted-key scheme guarantees — regression-tested). *)

val size : unit -> int
(** Entries currently held; always [<= capacity]. *)

val default_capacity : int
(** The bound a fresh process starts with: 32768 entries. *)

val set_capacity : int -> unit
(** Change the bound (>= 1), evicting immediately if the table already
    exceeds it.  The default is {!default_capacity}. *)

val reset : unit -> unit
(** Clear the table and zero the counters (capacity is kept). *)

val set_enabled : bool -> unit
(** [set_enabled false] bypasses the table entirely: every [check] and
    [is_sat] goes straight to {!Solve}, touching neither the table nor
    the counters.  Because verdicts are a pure function of the
    constraint set, output with the cache off is identical to output
    with it on — the differential oracle in [Proptest.Oracle] checks
    exactly that.  Default: enabled. *)

val enabled : unit -> bool
