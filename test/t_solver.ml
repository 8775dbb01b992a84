(* Tests for the constraint solver (lib/solver), including a brute-force
   differential check on small domains. *)

open Solver

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_syms f =
  let gen = Sym.gen () in
  let x = Sym.fresh gen ~lo:0 ~hi:10 "x" in
  let y = Sym.fresh gen ~lo:0 ~hi:10 "y" in
  f gen x y

let test_linexpr () =
  with_syms (fun _ x y ->
      let e =
        Linexpr.add
          (Linexpr.scale 2 (Linexpr.sym x))
          (Linexpr.add_const 5 (Linexpr.sym y))
      in
      let assign s = if Sym.equal s x then 3 else 4 in
      check_int "eval" 15 (Linexpr.eval assign e);
      check_int "range lo" 5 (fst (Linexpr.range Sym.bounds e));
      check_int "range hi" 35 (snd (Linexpr.range Sym.bounds e));
      check_bool "cancellation" true
        (Linexpr.is_const (Linexpr.sub (Linexpr.sym x) (Linexpr.sym x))
        = Some 0))

let test_constr_constant_folding () =
  let five = Linexpr.const 5 and three = Linexpr.const 3 in
  check_bool "5 <= 3 folds" true (Constr.le five three = Constr.False);
  check_bool "3 <= 5 folds" true (Constr.le three five = Constr.True);
  check_bool "eq folds" true (Constr.eq five five = Constr.True);
  check_bool "conj with false" true
    (Constr.conj [ Constr.True; Constr.False ] = Constr.False);
  check_bool "disj with true" true
    (Constr.disj [ Constr.False; Constr.True ] = Constr.True)

let test_not () =
  with_syms (fun _ x _ ->
      let f = Constr.le (Linexpr.sym x) (Linexpr.const 4) in
      (* ¬(x <= 4) ∧ (x <= 4) unsat *)
      check_bool "complement unsat" false
        (Solve.is_sat [ f; Constr.not_ f ]);
      check_bool "double negation sat with original" true
        (Solve.is_sat [ f; Constr.not_ (Constr.not_ f) ]))

let test_solve_basic () =
  with_syms (fun _ x y ->
      let xl = Linexpr.sym x and yl = Linexpr.sym y in
      (* x + y = 13, x <= 4 → x in [3,4] since y <= 10 *)
      let cs =
        [ Constr.eq (Linexpr.add xl yl) (Linexpr.const 13);
          Constr.le xl (Linexpr.const 4) ]
      in
      match Solve.check cs with
      | Solve.Sat m ->
          let vx = Model.value m x and vy = Model.value m y in
          check_bool "model satisfies" true (vx + vy = 13 && vx <= 4)
      | _ -> Alcotest.fail "expected sat");
  with_syms (fun _ x _ ->
      let xl = Linexpr.sym x in
      check_bool "out of bounds unsat" false
        (Solve.is_sat [ Constr.ge xl (Linexpr.const 11) ]);
      check_bool "boundary sat" true
        (Solve.is_sat [ Constr.ge xl (Linexpr.const 10) ]))

let test_solve_disjunction () =
  with_syms (fun _ x _ ->
      let xl = Linexpr.sym x in
      let f =
        Constr.disj
          [ Constr.eq xl (Linexpr.const 7); Constr.eq xl (Linexpr.const 9) ]
      in
      match Solve.check [ f; Constr.ne xl (Linexpr.const 7) ] with
      | Solve.Sat m -> check_int "picks 9" 9 (Model.value m x)
      | _ -> Alcotest.fail "expected sat")

let test_model_defaults () =
  with_syms (fun _ x _ ->
      let m = Model.empty in
      check_int "default is lower bound" 0 (Model.value m x))

(* Brute-force differential testing: random constraint systems over two
   small-domain symbols; the solver must agree with exhaustive
   enumeration. *)
let gen_formula gen_ctx =
  let x, y = gen_ctx in
  let open QCheck2.Gen in
  let gen_lin =
    let* cx = int_range (-3) 3 in
    let* cy = int_range (-3) 3 in
    let* k = int_range (-10) 10 in
    return
      (Linexpr.add_const k
         (Linexpr.add
            (Linexpr.scale cx (Linexpr.sym x))
            (Linexpr.scale cy (Linexpr.sym y))))
  in
  let gen_atom =
    let* a = gen_lin in
    let* b = gen_lin in
    oneof
      [
        return (Constr.le a b); return (Constr.lt a b);
        return (Constr.eq a b); return (Constr.ne a b);
        return (Constr.ge a b);
      ]
  in
  let* atoms = list_size (int_range 1 4) gen_atom in
  let* use_disj = bool in
  if use_disj then
    let* extra = gen_atom in
    return (Constr.disj [ Constr.conj atoms; extra ])
  else return (Constr.conj atoms)

let brute_force_sat x y formula =
  let rec eval_formula vx vy = function
    | Constr.True -> true
    | Constr.False -> false
    | Constr.Atom (Constr.Le lin) ->
        Linexpr.eval (fun s -> if Sym.equal s x then vx else vy) lin <= 0
    | Constr.Atom (Constr.Eqz lin) ->
        Linexpr.eval (fun s -> if Sym.equal s x then vx else vy) lin = 0
    | Constr.And parts -> List.for_all (eval_formula vx vy) parts
    | Constr.Or parts -> List.exists (eval_formula vx vy) parts
  in
  let lo_x, hi_x = Sym.bounds x and lo_y, hi_y = Sym.bounds y in
  let found = ref false in
  for vx = lo_x to hi_x do
    for vy = lo_y to hi_y do
      if eval_formula vx vy formula then found := true
    done
  done;
  !found

let prop_solver_matches_brute_force =
  let gen = Sym.gen () in
  let x = Sym.fresh gen ~lo:0 ~hi:7 "x" in
  let y = Sym.fresh gen ~lo:0 ~hi:7 "y" in
  QCheck2.Test.make ~count:500 ~name:"solver agrees with brute force"
    (gen_formula (x, y))
    (fun formula ->
      let expected = brute_force_sat x y formula in
      match Solve.check [ formula ] with
      | Solve.Sat m ->
          (* a claimed model must actually satisfy the formula *)
          let rec holds = function
            | Constr.True -> true
            | Constr.False -> false
            | Constr.Atom (Constr.Le lin) -> Model.eval m lin <= 0
            | Constr.Atom (Constr.Eqz lin) -> Model.eval m lin = 0
            | Constr.And parts -> List.for_all holds parts
            | Constr.Or parts -> List.exists holds parts
          in
          expected && holds formula
      | Solve.Unsat -> not expected
      | Solve.Unknown -> true)

let test_unknown_is_conservative () =
  (* with the DNF budget forced to zero, the solver must give up as
     Unknown — and is_sat must treat Unknown as satisfiable, because a
     path we cannot prove infeasible has to stay in the contract *)
  with_syms (fun _ x _ ->
      let xl = Linexpr.sym x in
      let f =
        Constr.disj
          [ Constr.eq xl (Linexpr.const 1); Constr.eq xl (Linexpr.const 2) ]
      in
      (match Solve.check ~max_conjuncts:0 [ f ] with
      | Solve.Unknown -> ()
      | _ -> Alcotest.fail "expected Unknown under a zero budget");
      check_bool "unknown counts as sat" true
        (Solve.is_sat ~max_conjuncts:0 [ f ]))

let test_tight_bounds_propagation () =
  with_syms (fun _ x y ->
      let xl = Linexpr.sym x and yl = Linexpr.sym y in
      (* 2x + 3y = 29 with x,y in [0,10]: solutions exist (x=1,y=9 ...) *)
      let f = Constr.eq (Linexpr.add (Linexpr.scale 2 xl) (Linexpr.scale 3 yl))
          (Linexpr.const 29) in
      (match Solve.check [ f ] with
      | Solve.Sat m ->
          check_bool "exact" true
            ((2 * Model.value m x) + (3 * Model.value m y) = 29)
      | _ -> Alcotest.fail "expected sat");
      (* 2x + 4y = 29 has no integer solutions... parity is beyond pure
         interval reasoning, so the solver may answer Sat only with a real
         witness — verify it never fabricates one *)
      let g = Constr.eq (Linexpr.add (Linexpr.scale 2 xl) (Linexpr.scale 4 yl))
          (Linexpr.const 29) in
      match Solve.check [ g ] with
      | Solve.Sat m ->
          Alcotest.fail
            (Printf.sprintf "fabricated witness x=%d y=%d" (Model.value m x)
               (Model.value m y))
      | Solve.Unsat | Solve.Unknown -> ())

(* The memoizing front-end must agree with fresh solves: same verdict
   class, and any cached model must satisfy the original constraints. *)
let prop_cache_matches_solve =
  let gen = Sym.gen () in
  let x = Sym.fresh gen ~lo:0 ~hi:7 "cx" in
  let y = Sym.fresh gen ~lo:0 ~hi:7 "cy" in
  let holds m =
    let rec go = function
      | Constr.True -> true
      | Constr.False -> false
      | Constr.Atom (Constr.Le lin) -> Model.eval m lin <= 0
      | Constr.Atom (Constr.Eqz lin) -> Model.eval m lin = 0
      | Constr.And parts -> List.for_all go parts
      | Constr.Or parts -> List.exists go parts
    in
    go
  in
  QCheck2.Test.make ~count:300 ~name:"memoized verdicts equal fresh solves"
    (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 3) (gen_formula (x, y)))
    (fun formulas ->
      let fresh = Solve.check formulas in
      let cached = Cache.check formulas in
      let verdicts_agree =
        match (fresh, cached) with
        | Solve.Sat _, Solve.Sat m -> List.for_all (holds m) formulas
        | Solve.Unsat, Solve.Unsat | Solve.Unknown, Solve.Unknown -> true
        | _ -> false
      in
      (* a repeat query must return the very same verdict, and is_sat
         must agree with the uncached entry point *)
      verdicts_agree
      && Cache.check formulas = cached
      && Cache.is_sat formulas = Solve.is_sat formulas)

let test_cache_stats () =
  with_syms (fun _ x _ ->
      Cache.reset ();
      let xl = Linexpr.sym x in
      let c1 = Constr.le xl (Linexpr.const 4) in
      let c2 = Constr.ge xl (Linexpr.const 2) in
      check_bool "sat" true (Cache.is_sat [ c1; c2 ]);
      let s = Cache.stats () in
      check_int "first query misses" 1 s.Cache.misses;
      check_int "no hits yet" 0 s.Cache.hits;
      (* permuted, duplicated and True-padded sets normalize to the same
         fingerprint *)
      check_bool "normalized hit" true
        (Cache.is_sat [ c2; c1; c2; Constr.True ]);
      let s = Cache.stats () in
      check_int "hit on normalized set" 1 s.Cache.hits;
      check_int "still one miss" 1 s.Cache.misses;
      (* a different solver budget is a different key *)
      check_bool "other budget" true (Cache.is_sat ~max_nodes:1234 [ c1; c2 ]);
      check_int "budget miss" 2 (Cache.stats ()).Cache.misses;
      Cache.reset ();
      let s = Cache.stats () in
      check_int "reset misses" 0 s.Cache.misses;
      check_int "reset hits" 0 s.Cache.hits;
      check_int "reset fingerprints" 0 s.Cache.fingerprints)

(* Regression for the fingerprinted-key scheme: the structural hash is
   computed exactly once per lookup (at normalization) and stored in
   the key — table probes must never re-hash the constraint tree, so
   the mean probe cost stays pinned at 1.0 however hit-heavy or
   collision-prone the workload gets. *)
let test_cache_probe_cost () =
  with_syms (fun _ x y ->
      Cache.reset ();
      let xl = Linexpr.sym x and yl = Linexpr.sym y in
      let query k =
        [ Constr.le xl (Linexpr.const k); Constr.ge yl (Linexpr.const 1) ]
      in
      let lookups = ref 0 in
      for k = 1 to 16 do
        ignore (Cache.is_sat (query k));
        incr lookups
      done;
      (* hammer the same keys: hits must not add fingerprint work *)
      for _ = 1 to 4 do
        for k = 1 to 16 do
          ignore (Cache.is_sat (query k));
          incr lookups
        done
      done;
      let s = Cache.stats () in
      check_int "one fingerprint per lookup" !lookups s.Cache.fingerprints;
      check_int "lookups accounted" !lookups (s.Cache.hits + s.Cache.misses);
      check_bool "mean probe cost pinned at 1.0" true
        (Float.abs (Cache.mean_probe_cost s -. 1.0) < 1e-9);
      Cache.reset ())

let test_cache_eviction () =
  with_syms (fun _ x _ ->
      Cache.reset ();
      Cache.set_capacity 8;
      Fun.protect
        ~finally:(fun () ->
          Cache.set_capacity 32_768;
          Cache.reset ())
        (fun () ->
          let xl = Linexpr.sym x in
          let query k = [ Constr.le xl (Linexpr.const k) ] in
          (* 24 distinct keys through an 8-entry cache *)
          for k = 1 to 24 do
            check_bool "sat" true (Cache.is_sat (query k))
          done;
          check_bool "bounded" true (Cache.size () <= 8);
          let s = Cache.stats () in
          check_int "all distinct keys miss" 24 s.Cache.misses;
          check_bool "evictions happened" true (s.Cache.evictions >= 16);
          (* an evicted key re-solves to the identical verdict *)
          let fresh = Solve.check (query 1) in
          check_bool "evicted key re-solves identically" true
            (Cache.check (query 1) = fresh);
          (* growing the bound stops eviction pressure *)
          Cache.set_capacity 64;
          let before = (Cache.stats ()).Cache.evictions in
          for k = 1 to 24 do
            ignore (Cache.is_sat (query k))
          done;
          check_int "no further evictions at capacity 64" before
            (Cache.stats ()).Cache.evictions))

(* The cache is shared by every pipeline domain: hammer it from an
   [Exec.Pool] at a starved capacity (constant eviction churn) and
   check each domain still sees exactly the direct solver's verdict,
   and the table never outgrows its bound. *)
let test_cache_parallel_domains () =
  Solver.Cache.reset ();
  Solver.Cache.set_capacity 32;
  Fun.protect ~finally:(fun () ->
      Solver.Cache.set_capacity 32768;
      Solver.Cache.reset ())
  @@ fun () ->
  let gen = Sym.gen () in
  let x = Sym.fresh gen ~lo:0 ~hi:1000 "x" in
  let xl = Linexpr.sym x in
  (* 200 distinct keys, an even sat/unsat mix *)
  let sets =
    List.init 200 (fun i ->
        [
          Constr.eq xl (Linexpr.const (i / 2));
          (if i mod 2 = 0 then Constr.le xl (Linexpr.const 500)
           else Constr.gt xl (Linexpr.const 500));
        ])
  in
  let kind = function
    | Solve.Sat _ -> "sat"
    | Solve.Unsat -> "unsat"
    | Solve.Unknown -> "unknown"
  in
  let want = List.map (fun cs -> kind (Solve.check cs)) sets in
  (* three interleaved sweeps: misses, hits and evicted re-solves race *)
  let items = sets @ List.rev sets @ sets in
  let got = Exec.Pool.map ~jobs:4 (fun cs -> kind (Cache.check cs)) items in
  Alcotest.(check (list string))
    "parallel cached verdicts match direct solve"
    (want @ List.rev want @ want)
    got;
  check_bool "table stayed within its bound" true (Cache.size () <= 32)


(* ---- Model-identity differential against the map-based reference ----

   [Reference] is the solver's earlier decision procedure, kept here as
   a test-only oracle: an [Int] map store, rows re-summed term by term
   through [Linexpr], every row run every round.  The flat kernel in
   [Solve] must return the same verdict and the same model on every
   input, so the pipeline's witnesses do not move. *)
module Reference = struct
  let fdiv a b =
    let q = a / b and r = a mod b in
    if r <> 0 && r lxor b < 0 then q - 1 else q

  let cdiv a b = -fdiv (-a) b

  module IM = Map.Make (Int)

  type store = (Sym.t * int * int) IM.t

  let store_of_syms syms : store =
    List.fold_left
      (fun acc s ->
        let lo, hi = Sym.bounds s in
        IM.add (Sym.id s) (s, lo, hi) acc)
      IM.empty syms

  let store_bounds store s =
    match IM.find_opt (Sym.id s) store with
    | Some (_, lo, hi) -> (lo, hi)
    | None -> Sym.bounds s

  exception Empty

  let tighten store s lo hi =
    let clo, chi = store_bounds store s in
    let nlo = max lo clo and nhi = min hi chi in
    if nlo > nhi then raise Empty;
    if nlo = clo && nhi = chi then (store, false)
    else (IM.add (Sym.id s) (s, nlo, nhi) store, true)

  let propagate_le store lin =
    let range = Linexpr.range (store_bounds store) lin in
    if fst range > 0 then raise Empty;
    List.fold_left
      (fun (store, changed) (s, c) ->
        let rest = Linexpr.sub lin (Linexpr.scale c (Linexpr.sym s)) in
        let rest_min, _ = Linexpr.range (store_bounds store) rest in
        let store, ch =
          if c > 0 then tighten store s min_int (fdiv (-rest_min) c)
          else tighten store s (cdiv (-rest_min) c) max_int
        in
        (store, changed || ch))
      (store, false) (Linexpr.terms lin)

  let propagate_atom store = function
    | Constr.Le lin -> propagate_le store lin
    | Constr.Eqz lin ->
        let store, c1 = propagate_le store lin in
        let store, c2 = propagate_le store (Linexpr.neg lin) in
        (store, c1 || c2)

  let propagate_fixpoint atoms store =
    let rec loop store rounds =
      if rounds = 0 then store
      else
        let store, changed =
          List.fold_left
            (fun (store, changed) atom ->
              let store, ch = propagate_atom store atom in
              (store, changed || ch))
            (store, false) atoms
        in
        if changed then loop store (rounds - 1) else store
    in
    loop store 200

  let atom_sat assign = function
    | Constr.Le lin -> Linexpr.eval assign lin <= 0
    | Constr.Eqz lin -> Linexpr.eval assign lin = 0

  let model_of_store store =
    IM.fold (fun _ (s, lo, _) m -> Model.add s lo m) store Model.empty

  let solve_conjunct ~max_nodes atoms =
    let syms =
      List.concat_map
        (function Constr.Le l | Constr.Eqz l -> Linexpr.syms l)
        atoms
      |> List.sort_uniq Sym.compare
    in
    let nodes = ref 0 in
    let rec search store =
      incr nodes;
      if !nodes > max_nodes then None
      else
        match propagate_fixpoint atoms store with
        | exception Empty -> Some None
        | store -> (
            let model = model_of_store store in
            let assign s = Model.value model s in
            if List.for_all (atom_sat assign) atoms then Some (Some model)
            else
              let pick =
                IM.fold
                  (fun _ (s, lo, hi) best ->
                    if lo = hi then best
                    else
                      match best with
                      | Some (_, blo, bhi) when bhi - blo >= hi - lo -> best
                      | _ -> Some (s, lo, hi))
                  store None
              in
              match pick with
              | None -> Some None
              | Some (s, lo, hi) -> (
                  let mid = lo + ((hi - lo) / 2) in
                  let try_range nlo nhi =
                    match tighten store s nlo nhi with
                    | exception Empty -> Some None
                    | store, _ -> search store
                  in
                  match try_range lo mid with
                  | Some (Some m) -> Some (Some m)
                  | Some None -> try_range (mid + 1) hi
                  | None -> None))
    in
    match search (store_of_syms syms) with
    | Some (Some m) -> Solve.Sat m
    | Some None -> Solve.Unsat
    | None -> Solve.Unknown

  let rec dnf (f : Constr.t) : Constr.atom list Seq.t =
    match f with
    | Constr.True -> Seq.return []
    | Constr.False -> Seq.empty
    | Constr.Atom a -> Seq.return [ a ]
    | Constr.Or parts -> Seq.concat_map dnf (List.to_seq parts)
    | Constr.And parts ->
        List.fold_left
          (fun acc part ->
            Seq.concat_map
              (fun conj -> Seq.map (fun atoms -> conj @ atoms) (dnf part))
              acc)
          (Seq.return []) parts

  let check ?(max_conjuncts = 4096) ?(max_nodes = 20_000) constraints =
    match Constr.conj constraints with
    | Constr.True -> Solve.Sat Model.empty
    | Constr.False -> Solve.Unsat
    | formula ->
        let rec scan seq budget any_unknown =
          if budget = 0 then Solve.Unknown
          else
            match Seq.uncons seq with
            | None -> if any_unknown then Solve.Unknown else Solve.Unsat
            | Some (atoms, rest) -> (
                match solve_conjunct ~max_nodes atoms with
                | Solve.Sat m -> Solve.Sat m
                | Solve.Unsat -> scan rest (budget - 1) any_unknown
                | Solve.Unknown -> scan rest (budget - 1) true)
        in
        scan (dnf formula) max_conjuncts false
end

(* A verdict with its model's bindings, as (id, name, value). *)
let render = function
  | Solve.Unsat -> "unsat"
  | Solve.Unknown -> "unknown"
  | Solve.Sat m ->
      "sat "
      ^ String.concat ","
          (List.map
             (fun (s, v) -> Printf.sprintf "%d:%s=%d" (Sym.id s) (Sym.name s) v)
             (Model.bindings m))

(* Random systems shaped like the engine's: 1-8 symbols with header-like
   bounds, 1-40 constraints that mostly hold at a hidden point (so the
   search has real work to do), [Eqz] atoms, multi-term rows and a few
   disjunctions, under a node budget of 1-200. *)
let gen_system =
  let open QCheck2.Gen in
  let* nsyms = int_range 1 8 in
  let* kinds = list_repeat nsyms (int_range 0 3) in
  let* seeds = list_repeat nsyms (float_bound_inclusive 1.0) in
  let g = Sym.gen () in
  let syms =
    Array.of_list
      (List.mapi
         (fun i k ->
           let name = Printf.sprintf "s%d" i in
           match k with
           | 0 -> Sym.byte g name
           | 1 -> Sym.u16 g name
           | 2 -> Sym.u32 g name
           | _ -> Sym.fresh g ~lo:1000 ~hi:(1 lsl 40) name)
         kinds)
  in
  (* the hidden point, one value per symbol inside its bounds *)
  let point =
    Array.of_list
      (List.mapi
         (fun i f ->
           let lo, hi = Sym.bounds syms.(i) in
           lo + int_of_float (f *. float_of_int (hi - lo)))
         seeds)
  in
  let gen_lin =
    let* nterms = int_range 1 (min 3 nsyms) in
    let* terms =
      list_repeat nterms
        (pair (int_range 0 (nsyms - 1))
           (oneof [ int_range (-3) (-1); int_range 1 3 ]))
    in
    return
      (List.fold_left
         (fun acc (i, c) ->
           Linexpr.add acc (Linexpr.scale c (Linexpr.sym syms.(i))))
         Linexpr.zero terms)
  in
  let at_point lin = Linexpr.eval (fun s -> point.(Sym.id s)) lin in
  let gen_atom =
    let* lin = gen_lin in
    let* slack = oneof [ return 0; int_range 0 16; int_range 0 100_000 ] in
    let* noise = int_range (-1 lsl 20) (1 lsl 20) in
    let v = at_point lin in
    frequency
      [
        (12, return (Constr.le lin (Linexpr.const (v + slack))));
        (12, return (Constr.ge lin (Linexpr.const (v - slack))));
        (4, return (Constr.eq lin (Linexpr.const v)));
        (1, return (Constr.eq lin (Linexpr.const (v + (slack mod 4)))));
        (1, return (Constr.le lin (Linexpr.const (v + noise))));
      ]
  in
  let gen_constraint ~disj =
    if disj then
      let* a = gen_atom in
      let* b = gen_atom in
      oneof
        [
          return (Constr.disj [ a; b ]);
          (let* lin = gen_lin in
           return (Constr.ne lin (Linexpr.const (at_point lin))));
        ]
    else gen_atom
  in
  let* natoms = int_range 1 40 in
  let* ndisj = int_range 0 (min 3 natoms) in
  let* plain = list_repeat (natoms - ndisj) (gen_constraint ~disj:false) in
  let* disjs = list_repeat ndisj (gen_constraint ~disj:true) in
  let* order = shuffle_l (plain @ disjs) in
  let* max_nodes = int_range 1 200 in
  return (order, max_nodes)

let print_system (cs, max_nodes) =
  Fmt.str "max_nodes=%d@ %a" max_nodes
    Fmt.(list ~sep:(any " &&@ ") Constr.pp)
    cs

let prop_kernel_matches_reference =
  QCheck2.Test.make ~count:1000 ~print:print_system
    ~name:"solver: kernel equals map-based reference (verdict and model)"
    gen_system
    (fun (cs, max_nodes) ->
      let want = render (Reference.check ~max_nodes cs) in
      let got = render (Solve.check ~max_nodes cs) in
      if want = got then true
      else QCheck2.Test.fail_reportf "reference: %s@.kernel:    %s" want got)

(* Disjunction-heavy systems: 1-5 header-like symbols under 0-12 plain
   constraints that mostly hold at a hidden point, and 0-8 [Or]/[ne]
   constraints whose disjuncts are atoms or [And]s of atoms.  One atom
   is shared by several disjuncts, 1-3 symbols appear only inside
   disjuncts (with their ids interleaved among the others), and many
   disjuncts fail at the point, so scans try several conjuncts.  A DNF
   budget of 1-16 makes them run out of conjuncts too. *)
let gen_disj_system =
  let open QCheck2.Gen in
  let* nbase = int_range 1 5 in
  let* nonly = int_range 1 3 in
  let n = nbase + nonly in
  let* layout =
    shuffle_l (List.init nbase (fun _ -> false) @ List.init nonly (fun _ -> true))
  in
  let* kinds = list_repeat n (int_range 0 3) in
  let* seeds = list_repeat n (float_bound_inclusive 1.0) in
  let g = Sym.gen () in
  let syms =
    Array.of_list
      (List.mapi
         (fun i (k, only) ->
           let name = Printf.sprintf "%s%d" (if only then "d" else "s") i in
           match k with
           | 0 -> Sym.byte g name
           | 1 -> Sym.u16 g name
           | 2 -> Sym.u32 g name
           | _ -> Sym.fresh g ~lo:1000 ~hi:(1 lsl 40) name)
         (List.combine kinds layout))
  in
  let point =
    Array.of_list
      (List.mapi
         (fun i f ->
           let lo, hi = Sym.bounds syms.(i) in
           lo + int_of_float (f *. float_of_int (hi - lo)))
         seeds)
  in
  let base =
    Array.of_list
      (List.filter_map Fun.id
         (List.mapi (fun i only -> if only then None else Some i) layout))
  in
  let all = Array.init n Fun.id in
  let gen_lin pool =
    let* nterms = int_range 1 (min 3 (Array.length pool)) in
    let* terms =
      list_repeat nterms
        (pair (oneofa pool) (oneof [ int_range (-3) (-1); int_range 1 3 ]))
    in
    return
      (List.fold_left
         (fun acc (i, c) ->
           Linexpr.add acc (Linexpr.scale c (Linexpr.sym syms.(i))))
         Linexpr.zero terms)
  in
  let at_point lin = Linexpr.eval (fun s -> point.(Sym.id s)) lin in
  (* [fail] weighs the atoms that do not hold at the point *)
  let gen_atom ~fail pool =
    let* lin = gen_lin pool in
    let* slack = oneof [ return 0; int_range 0 16; int_range 0 100_000 ] in
    let v = at_point lin in
    frequency
      [
        (6, return (Constr.le lin (Linexpr.const (v + slack))));
        (6, return (Constr.ge lin (Linexpr.const (v - slack))));
        (2, return (Constr.eq lin (Linexpr.const v)));
        (fail, return (Constr.le lin (Linexpr.const (v - 1 - slack))));
        (fail, return (Constr.eq lin (Linexpr.const (v + 1 + (slack mod 4)))));
      ]
  in
  let* shared = gen_atom ~fail:3 all in
  let gen_disjunct =
    frequency
      [
        (3, gen_atom ~fail:3 all);
        ( 2,
          let* k = int_range 2 3 in
          let* parts = list_repeat k (gen_atom ~fail:3 all) in
          return (Constr.conj parts) );
        ( 2,
          let* other = gen_atom ~fail:3 all in
          return (Constr.conj [ shared; other ]) );
      ]
  in
  let gen_or =
    frequency
      [
        ( 1,
          let* lin = gen_lin all in
          let* d = oneof [ return 0; int_range 0 3 ] in
          return (Constr.ne lin (Linexpr.const (at_point lin + d))) );
        ( 4,
          let* k = int_range 2 3 in
          let* ds = list_repeat k gen_disjunct in
          return (Constr.disj ds) );
      ]
  in
  let* nplain = int_range 0 12 in
  let* plain = list_repeat nplain (gen_atom ~fail:0 base) in
  let* nor = int_range 0 8 in
  let* ors = list_repeat nor gen_or in
  let* order = shuffle_l (plain @ ors) in
  let* max_conjuncts = int_range 1 16 in
  let* max_nodes = int_range 1 200 in
  return (order, max_conjuncts, max_nodes)

let prop_disjunctions_match_reference =
  QCheck2.Test.make ~count:1000
    ~print:(fun (cs, max_conjuncts, max_nodes) ->
      Fmt.str "max_conjuncts=%d@ %s" max_conjuncts
        (print_system (cs, max_nodes)))
    ~name:"solver: disjunction-heavy systems equal the reference"
    gen_disj_system
    (fun (cs, max_conjuncts, max_nodes) ->
      let want = render (Reference.check ~max_conjuncts ~max_nodes cs) in
      let got = render (Solve.check ~max_conjuncts ~max_nodes cs) in
      if want = got then true
      else QCheck2.Test.fail_reportf "reference: %s@.kernel:    %s" want got)

(* x <= y - 1 && y <= x shrinks each bound by one per round, so over
   [0, 300] propagation empties the store in about 150 rounds, while over
   [0, 450] and u32 it stops at the 200-round cap and the search splits.
   The verdict at every small node budget must match, which pins where
   the cap falls and how the nodes are counted. *)
let test_round_cap () =
  List.iter
    (fun (lo, hi) ->
      let g = Sym.gen () in
      let x = Sym.fresh g ~lo ~hi "x" and y = Sym.fresh g ~lo ~hi "y" in
      let xl = Linexpr.sym x and yl = Linexpr.sym y in
      let cycle =
        [ Constr.le xl (Linexpr.add_const (-1) yl); Constr.le yl xl ]
      in
      let sum = Constr.eq (Linexpr.add xl yl) (Linexpr.const 301) in
      List.iter
        (fun cs ->
          List.iter
            (fun max_nodes ->
              Alcotest.(check string)
                (Printf.sprintf "[%d,%d] %d atoms, max_nodes %d" lo hi
                   (List.length cs) max_nodes)
                (render (Reference.check ~max_nodes cs))
                (render (Solve.check ~max_nodes cs)))
            [ 1; 2; 3; 4; 5; 8; 64 ])
        [ cycle; sum :: cycle ])
    [ (0, (1 lsl 32) - 1); (0, 300); (0, 450) ]

(* A check compiles each atom occurrence once, however many conjuncts
   its DNF expands to: 10 plain atoms and three binary [Or]s make 8
   conjuncts of 13 atoms, each unsatisfiable, from 16 compiled atoms
   (compiling per conjunct would be 104). *)
let test_atoms_compiled_once () =
  let g = Sym.gen () in
  let x = Sym.fresh g ~lo:0 ~hi:100 "x" in
  let xl = Linexpr.sym x and c = Linexpr.const in
  let plain =
    Constr.ge xl (c 50) :: Constr.le xl (c 40)
    :: List.init 8 (fun i -> Constr.le xl (c (60 + i)))
  in
  let ors =
    List.init 3 (fun i ->
        let y = Linexpr.sym (Sym.fresh g ~lo:0 ~hi:100 (Printf.sprintf "y%d" i)) in
        Constr.disj [ Constr.le y (c 10); Constr.ge y (c 20) ])
  in
  let conjuncts = Obs.Metrics.counter "solver.conjuncts"
  and atoms = Obs.Metrics.counter "solver.atoms_compiled" in
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let conjuncts0 = Obs.Metrics.value conjuncts
      and atoms0 = Obs.Metrics.value atoms in
      Alcotest.(check string) "verdict" "unsat" (render (Solve.check (plain @ ors)));
      check_int "conjuncts tried" 8 (Obs.Metrics.value conjuncts - conjuncts0);
      check_int "atoms compiled" 16 (Obs.Metrics.value atoms - atoms0))

(* Every witness the pipeline builds, pinned by digest: the concretized
   packet bytes, in_port, now and stub values of each path of every
   registry NF and of each route of every built-in topology.  The golden
   contracts only see a witness through its replayed price, so a solver
   change that picks a different witness of the same cost slips past
   them; this digest does not. *)
let add_witness buf ~tag ~packet ~stubs ~in_port ~now =
  Printf.bprintf buf "%s|%s|%s|%d|%d\n" tag
    (String.concat ""
       (List.init (Net.Packet.length packet) (fun i ->
            Printf.sprintf "%02x" (Net.Packet.get_u8 packet i))))
    (String.concat "," (List.map string_of_int stubs))
    in_port now

let nf_witnesses buf =
  List.iter
    (fun (entry : Nf.Registry.entry) ->
      let t =
        Bolt.Pipeline.analyze
          ~config:
            Bolt.Pipeline.Config.(
              default |> with_contracts entry.Nf.Registry.contracts)
          entry.Nf.Registry.program
      in
      Printf.bprintf buf "nf %s unsolved=%d\n" entry.Nf.Registry.name
        t.Bolt.Pipeline.unsolved;
      List.iter
        (fun (a : Bolt.Pipeline.path_analysis) ->
          add_witness buf
            ~tag:(string_of_int a.Bolt.Pipeline.path.Symbex.Path.id)
            ~packet:a.Bolt.Pipeline.packet ~stubs:a.Bolt.Pipeline.stubs
            ~in_port:a.Bolt.Pipeline.in_port ~now:a.Bolt.Pipeline.now)
        t.Bolt.Pipeline.analyses)
    (Nf.Registry.all ())

(* Each route's witness, replayed step by step with that node's own
   in_port and now; a step is tagged by its node's position in the graph
   and its path id. *)
let topo_witnesses buf =
  List.iter
    (fun (b : Topo.Builtin.entry) ->
      let g = b.Topo.Builtin.graph in
      let t = Topo.Analysis.run g in
      let index name =
        let rec go i = function
          | [] -> invalid_arg name
          | (n : Topo.Graph.node) :: tl ->
              if n.Topo.Graph.name = name then i else go (i + 1) tl
        in
        go 0 g.Topo.Graph.nodes
      in
      Printf.bprintf buf "topo %s routes=%d unsolved=%d\n" g.Topo.Graph.name
        (List.length t.Topo.Analysis.routes) t.Topo.Analysis.unsolved;
      List.iter
        (fun (route : Topo.Analysis.route) ->
          match Solve.check route.Topo.Analysis.constraints with
          | Solve.Unsat | Solve.Unknown ->
              Alcotest.fail "route lost its witness"
          | Solve.Sat m ->
              let input = t.Topo.Analysis.input in
              let len = Model.value m (Symbex.Spacket.len_sym input) in
              let packet = Net.Packet.create len in
              List.iter
                (fun (off, s) ->
                  if off < len then
                    Net.Packet.set_u8 packet off (Model.value m s land 0xff))
                (Symbex.Spacket.known_bytes input);
              List.iter
                (fun (st : Topo.Analysis.step) ->
                  let path = st.Topo.Analysis.path in
                  add_witness buf
                    ~tag:
                      (Printf.sprintf "%d:%d"
                         (index st.Topo.Analysis.node)
                         path.Symbex.Path.id)
                    ~packet
                    ~stubs:
                      (List.map
                         (fun c -> Model.eval m c.Symbex.Path.ret)
                         path.Symbex.Path.calls)
                    ~in_port:(Model.value m st.Topo.Analysis.in_port)
                    ~now:(Model.value m st.Topo.Analysis.now))
                route.Topo.Analysis.steps)
        t.Topo.Analysis.routes)
    (Topo.Builtin.all ())

(* ---- Constraint slicing ---------------------------------------------- *)

let test_slice () =
  let gen = Sym.gen () in
  let sym name = Linexpr.sym (Sym.fresh gen ~lo:0 ~hi:10 name) in
  let a = sym "a" and b = sym "b" and c = sym "c" and d = sym "d" in
  let ab = Constr.le a b and bc = Constr.lt b c in
  let dd = Constr.ge d (Linexpr.const 3) in
  let known = [ bc; dd; Constr.False; ab ] in
  let extra = [ Constr.eq a (Linexpr.const 2) ] in
  let got = Cache.slice ~known extra in
  let has c = List.mem c got in
  check_bool "a pulls in a <= b" true (has ab);
  check_bool "a <= b pulls in b < c (chain a~b~c)" true (has bc);
  check_bool "symbol-free False kept" true (has Constr.False);
  check_bool "independent d dropped" false (has dd);
  check_bool "extra kept" true (List.for_all has extra);
  check_int "slice size" 4 (List.length got);
  check_bool "empty extra keeps only symbol-free" true
    (Cache.slice ~known [] = [ Constr.False ]);
  (* the seed links its own symbols: a constraint over [a, d] joins the
     two components *)
  check_int "seed joins components" 5
    (List.length (Cache.slice ~known [ Constr.le a d ]))

(* Feasibility checks prune on slices, which is exact when every set a
   check treats as accepted is satisfiable.  Every path exploration keeps
   and every route the topology walk keeps must therefore be decidedly
   Sat on its whole constraint set under the feasibility budget: an
   Unsat one would be a fork the whole-set check prunes and the sliced
   one kept, an Unknown one a check whose sliced verdict may differ. *)
let test_kept_sets_satisfiable () =
  let whole cs =
    match
      Solve.check ~max_conjuncts:Cache.feasibility_max_conjuncts
        ~max_nodes:Cache.feasibility_max_nodes cs
    with
    | Solve.Sat _ -> true
    | Solve.Unsat | Solve.Unknown -> false
  in
  List.iter
    (fun (entry : Nf.Registry.entry) ->
      let r =
        Symbex.Engine.explore ~models:Bolt.Ds_models.default
          entry.Nf.Registry.program
      in
      List.iter
        (fun (p : Symbex.Path.t) ->
          check_bool
            (Printf.sprintf "%s path %d satisfiable" entry.Nf.Registry.name
               p.Symbex.Path.id)
            true
            (whole p.Symbex.Path.constraints))
        r.Symbex.Engine.paths)
    (Nf.Registry.all ());
  List.iter
    (fun (b : Topo.Builtin.entry) ->
      let name = b.Topo.Builtin.graph.Topo.Graph.name in
      let t = Topo.Analysis.run b.Topo.Builtin.graph in
      (* unsolved routes are walk-kept routes with no witness *)
      check_int (name ^ " unsolved routes") 0 t.Topo.Analysis.unsolved;
      List.iteri
        (fun i (r : Topo.Analysis.route) ->
          check_bool
            (Printf.sprintf "%s route %d satisfiable" name i)
            true
            (whole r.Topo.Analysis.constraints))
        t.Topo.Analysis.routes)
    (Topo.Builtin.all ())

let test_witness_digest () =
  let buf = Buffer.create 65536 in
  nf_witnesses buf;
  topo_witnesses buf;
  let lines =
    List.length (String.split_on_char '\n' (Buffer.contents buf)) - 1
  in
  check_int "witness lines" 267 lines;
  Alcotest.(check string)
    "witness digest" "863a2cd089ced931877c7da1b8ce0664"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let suite =
  [
    Alcotest.test_case "linexpr" `Quick test_linexpr;
    Alcotest.test_case "cache stats" `Quick test_cache_stats;
    Alcotest.test_case "cache probe cost" `Quick test_cache_probe_cost;
    Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
    Alcotest.test_case "unknown is conservative" `Quick
      test_unknown_is_conservative;
    Alcotest.test_case "tight propagation" `Quick
      test_tight_bounds_propagation;
    Alcotest.test_case "constr constant folding" `Quick
      test_constr_constant_folding;
    Alcotest.test_case "negation" `Quick test_not;
    Alcotest.test_case "solve basics" `Quick test_solve_basic;
    Alcotest.test_case "solve disjunction" `Quick test_solve_disjunction;
    Alcotest.test_case "model defaults" `Quick test_model_defaults;
    Alcotest.test_case "cache under parallel domains" `Quick
      test_cache_parallel_domains;
    Alcotest.test_case "round cap" `Quick test_round_cap;
    Alcotest.test_case "atoms compiled once per check" `Quick
      test_atoms_compiled_once;
    Alcotest.test_case "witness digest" `Slow test_witness_digest;
    Alcotest.test_case "slice closes over shared symbols" `Quick test_slice;
    Alcotest.test_case "kept paths and routes are satisfiable" `Quick
      test_kept_sets_satisfiable;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 16 |])
      prop_kernel_matches_reference;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 17 |])
      prop_disjunctions_match_reference;
    QCheck_alcotest.to_alcotest prop_solver_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_cache_matches_solve;
  ]
