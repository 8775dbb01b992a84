(* A memoizing front-end to {!Solve}.

   The key is a fingerprint of the *normalized* constraint set — trivial
   [True] conjuncts dropped, the rest sorted and deduplicated — plus the
   solver budgets, and the cached verdict is obtained by solving that
   normalized set.  A conjunction is insensitive to ordering and
   multiplicity, so the verdict is a pure function of the key; that is
   what makes the cache safe to share between pool workers: whichever
   domain populates an entry, every reader sees the same answer, and
   parallel runs stay bit-identical to serial ones.

   The table is bounded: at [capacity] entries, inserts evict via the
   second-chance (clock) policy — keys cycle through a FIFO, a hit marks
   an entry referenced, and the evictor skips referenced entries once
   before removing them — an O(1)-amortized approximation of LRU.
   Eviction only ever forgets a verdict, never changes one, so analysis
   output does not depend on the capacity.

   All table accesses are mutex-protected; the solve itself runs outside
   the lock, so concurrent misses on distinct keys proceed in parallel
   (two simultaneous misses on the *same* key both solve and agree). *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  fingerprints : int;
}

let hit_rate { hits; misses; _ } =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int hits /. float_of_int total

let mean_probe_cost { hits; misses; fingerprints; _ } =
  let total = hits + misses in
  if total = 0 then 0. else float_of_int fingerprints /. float_of_int total

(* Stdlib structural compare is a total order on [Constr.t]: pure
   variants over ints, strings and lists. *)
let normalize constraints =
  constraints
  |> List.filter (fun c -> not (Constr.is_true c))
  |> List.sort_uniq Stdlib.compare

type key = {
  fp : int;  (** structural fingerprint, computed once at normalization *)
  max_conjuncts : int;
  max_nodes : int;
  atoms : Constr.t list;
}

(* The full structural hash, walking every node exactly once.  Stored in
   the key so table probes compare the precomputed word verbatim instead
   of re-sampling the constraint tree per probe (the previous scheme,
   [Hashtbl.hash_param 256 512], re-walked up to 512 nodes on every
   lookup).  Symbol names are skipped: ids arbitrate, and a collision
   only costs the structural-equality fallback. *)
let mix h x = ((h lsl 5) + h) lxor x

let rec fp_constr h (c : Constr.t) =
  match c with
  | Constr.True -> mix h 1
  | Constr.False -> mix h 2
  | Constr.Atom (Constr.Le l) -> fp_lin (mix h 3) l
  | Constr.Atom (Constr.Eqz l) -> fp_lin (mix h 4) l
  | Constr.And l -> mix (List.fold_left fp_constr (mix h 5) l) 7
  | Constr.Or l -> mix (List.fold_left fp_constr (mix h 6) l) 8

and fp_lin h l =
  let h = mix h (Linexpr.const_part l) in
  List.fold_left
    (fun h (s, c) ->
      let lo, hi = Sym.bounds s in
      mix (mix (mix (mix h (Sym.id s)) lo) hi) c)
    h (Linexpr.terms l)

let fingerprint ~max_conjuncts ~max_nodes atoms =
  List.fold_left fp_constr (mix (mix 0 max_conjuncts) max_nodes) atoms

module H = Hashtbl.Make (struct
  type t = key

  (* the fingerprint covers the whole structure, so almost every
     non-equal probe is rejected on the first word *)
  let equal a b =
    a.fp = b.fp
    && a.max_conjuncts = b.max_conjuncts
    && a.max_nodes = b.max_nodes
    && a.atoms = b.atoms

  let hash k = k.fp
end)

type entry = { verdict : Solve.result; mutable referenced : bool }

let default_capacity = 32_768
let bypass = Atomic.make false
let set_enabled on = Atomic.set bypass (not on)
let enabled () = not (Atomic.get bypass)
let lock = Mutex.create ()
let table : entry H.t = H.create 1024
let clock : key Queue.t = Queue.create ()
let capacity = ref default_capacity
let hits = ref 0
let misses = ref 0
let evictions = ref 0
let fingerprints = ref 0
let c_hits = Obs.Metrics.counter "solver.cache.hits"
let c_misses = Obs.Metrics.counter "solver.cache.misses"
let c_evictions = Obs.Metrics.counter "solver.cache.evictions"

(* Call with [lock] held.  Every key in [table] is in [clock] exactly
   once, so the loop terminates: a full revolution clears every
   referenced bit and the next candidate is evictable. *)
let rec evict_one () =
  match Queue.take_opt clock with
  | None -> ()
  | Some k -> (
      match H.find_opt table k with
      | None -> evict_one ()
      | Some e when e.referenced ->
          e.referenced <- false;
          Queue.add k clock;
          evict_one ()
      | Some _ ->
          H.remove table k;
          incr evictions;
          Obs.Metrics.incr c_evictions)

let insert key verdict =
  Mutex.protect lock (fun () ->
      if not (H.mem table key) then begin
        while H.length table >= !capacity do
          evict_one ()
        done;
        H.replace table key { verdict; referenced = false };
        Queue.add key clock
      end)

(* Defaults mirror {!Solve.check}. *)
let check ?(max_conjuncts = 4096) ?(max_nodes = 20_000) constraints =
  if Atomic.get bypass then
    Solve.check ~max_conjuncts ~max_nodes constraints
  else
  let atoms = normalize constraints in
  let fp = fingerprint ~max_conjuncts ~max_nodes atoms in
  let key = { fp; max_conjuncts; max_nodes; atoms } in
  let cached =
    Mutex.protect lock (fun () ->
        incr fingerprints;
        match H.find_opt table key with
        | Some e ->
            e.referenced <- true;
            incr hits;
            Obs.Metrics.incr c_hits;
            Some e.verdict
        | None ->
            incr misses;
            Obs.Metrics.incr c_misses;
            None)
  in
  match cached with
  | Some r -> r
  | None ->
      let r = Solve.check ~max_conjuncts ~max_nodes key.atoms in
      insert key r;
      r

let is_sat ?max_conjuncts ?max_nodes constraints =
  match check ?max_conjuncts ?max_nodes constraints with
  | Solve.Sat _ | Solve.Unknown -> true
  | Solve.Unsat -> false

(* ---- Feasibility on constraint slices --------------------------------- *)

let feasibility_max_conjuncts = 512
let feasibility_max_nodes = 4000
let c_slice_dropped = Obs.Metrics.counter "solver.slice_dropped"

(* Union-find over symbol ids, in per-domain arrays that grow to
   the largest id seen and are never cleared: an id's [parent] entry
   counts only when its [stamp] is the current call's [epoch], so every
   call starts from singletons without touching the arrays. *)
type union_find = {
  mutable parent : int array;
  mutable stamp : int array;
  mutable epoch : int;
}

let union_find_key =
  Domain.DLS.new_key (fun () -> { parent = [||]; stamp = [||]; epoch = 0 })

let rec find s i =
  if i >= Array.length s.stamp || s.stamp.(i) <> s.epoch then i
  else
    let p = s.parent.(i) in
    let r = find s p in
    if r <> p then s.parent.(i) <- r;
    r

let union s i j =
  let a = find s i and b = find s j in
  if a <> b then begin
    if b >= Array.length s.stamp then begin
      let n = max (b + 1) (2 * Array.length s.stamp) in
      let grow a = Array.append a (Array.make (n - Array.length a) (-1)) in
      s.parent <- grow s.parent;
      s.stamp <- grow s.stamp
    end;
    s.parent.(b) <- a;
    s.stamp.(b) <- s.epoch
  end

(* Union every id of [c] with [rep] (the first id met when [rep] is
   [-1], the "no symbol yet" mark) and return the representative. *)
let rec link s rep (c : Constr.t) =
  match c with
  | Constr.True | Constr.False -> rep
  | Constr.Atom (Constr.Le l | Constr.Eqz l) -> link_terms s rep (Linexpr.terms l)
  | Constr.And l | Constr.Or l -> link_all s rep l

and link_terms s rep = function
  | [] -> rep
  | (sym, _) :: rest ->
      let i = Sym.id sym in
      if rep < 0 then link_terms s i rest
      else begin
        union s rep i;
        link_terms s rep rest
      end

and link_all s rep = function
  | [] -> rep
  | c :: rest -> link_all s (link s rep c) rest

let rec first_id (c : Constr.t) =
  match c with
  | Constr.True | Constr.False -> -1
  | Constr.Atom (Constr.Le l | Constr.Eqz l) -> (
      match Linexpr.terms l with (sym, _) :: _ -> Sym.id sym | [] -> -1)
  | Constr.And l | Constr.Or l -> first_id_all l

and first_id_all = function
  | [] -> -1
  | c :: rest ->
      let i = first_id c in
      if i >= 0 then i else first_id_all rest

(* Every constraint links its own ids and [extra] is linked as one block,
   so afterwards a constraint of [known] is in the closure of [extra]
   over shared symbols exactly when its first id has [extra]'s root.
   Returns the slice and how many [known] constraints it left out. *)
let slice_counted ~known extra =
  let s = Domain.DLS.get union_find_key in
  s.epoch <- s.epoch + 1;
  List.iter (fun c -> ignore (link s (-1) c)) known;
  let seed = link_all s (-1) extra in
  let root = if seed < 0 then -1 else find s seed in
  let dropped = ref 0 in
  let rec keep = function
    | [] -> extra
    | c :: rest ->
        let i = first_id c in
        if i < 0 || (root >= 0 && find s i = root) then c :: keep rest
        else begin
          incr dropped;
          keep rest
        end
  in
  let cs = keep known in
  (cs, !dropped)

let slice ~known extra = fst (slice_counted ~known extra)

let feasible ~known extra =
  let cs, dropped = slice_counted ~known extra in
  Obs.Metrics.add c_slice_dropped dropped;
  is_sat ~max_conjuncts:feasibility_max_conjuncts
    ~max_nodes:feasibility_max_nodes cs

let stats () =
  Mutex.protect lock (fun () ->
      {
        hits = !hits;
        misses = !misses;
        evictions = !evictions;
        fingerprints = !fingerprints;
      })

let size () = Mutex.protect lock (fun () -> H.length table)

let set_capacity n =
  if n < 1 then invalid_arg "Solver.Cache.set_capacity: capacity must be >= 1";
  Mutex.protect lock (fun () ->
      capacity := n;
      while H.length table > !capacity do
        evict_one ()
      done)

let reset () =
  Mutex.protect lock (fun () ->
      H.reset table;
      Queue.clear clock;
      hits := 0;
      misses := 0;
      evictions := 0;
      fingerprints := 0)
