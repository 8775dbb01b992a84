type result = Sat of Model.t | Unsat | Unknown

let c_solves = Obs.Metrics.counter "solver.solves"
let c_conjuncts = Obs.Metrics.counter "solver.conjuncts"
let c_nodes = Obs.Metrics.counter "solver.nodes"
let c_unknowns = Obs.Metrics.counter "solver.unknowns"

(* Floor and ceiling division, correct for negative numerators. *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && r lxor b < 0 then q - 1 else q

let cdiv a b = -fdiv (-a) b

(* A conjunct compiled once into flat rows.  Symbols are numbered densely
   in id order.  Row [r] stands for [row_const.(r) + sum c*x <= 0] over
   the terms [row_start.(r) .. row_start.(r + 1) - 1], each a symbol index
   in [term_sym] and a coefficient in [term_coef], in the expression's
   term order.  [Le lin] is one row; [Eqz lin] is two consecutive rows,
   [lin] then [-lin]; [atom_row.(a)] is atom [a]'s first row.
   [sym_rows.(i)] lists the rows that mention symbol [i]. *)
type kernel = {
  syms : Sym.t array;
  row_const : int array;
  row_start : int array;
  term_sym : int array;
  term_coef : int array;
  atom_row : int array;
  atom_eqz : bool array;
  sym_rows : int array array;
}

(* Index of symbol id [id] in the sorted [ids]. *)
let index_of (ids : int array) (id : int) =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    let v = ids.(mid) in
    if v = id then mid else if v < id then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length ids - 1)

let compile atoms =
  let syms =
    List.concat_map
      (function Constr.Le l | Constr.Eqz l -> Linexpr.syms l)
      atoms
    |> List.sort_uniq Sym.compare |> Array.of_list
  in
  let ids = Array.map Sym.id syms in
  let rows =
    Array.of_list
      (List.concat_map
         (function
           | Constr.Le l -> [ l ] | Constr.Eqz l -> [ l; Linexpr.neg l ])
         atoms)
  in
  let nrows = Array.length rows in
  let row_start = Array.make (nrows + 1) 0 in
  Array.iteri
    (fun r l ->
      row_start.(r + 1) <- row_start.(r) + List.length (Linexpr.terms l))
    rows;
  let term_sym = Array.make row_start.(nrows) 0 in
  let term_coef = Array.make row_start.(nrows) 0 in
  Array.iteri
    (fun r l ->
      List.iteri
        (fun j (s, c) ->
          term_sym.(row_start.(r) + j) <- index_of ids (Sym.id s);
          term_coef.(row_start.(r) + j) <- c)
        (Linexpr.terms l))
    rows;
  let occurs = Array.make (Array.length syms) [] in
  for r = nrows - 1 downto 0 do
    for t = row_start.(r) to row_start.(r + 1) - 1 do
      occurs.(term_sym.(t)) <- r :: occurs.(term_sym.(t))
    done
  done;
  let atom_eqz =
    Array.of_list
      (List.map (function Constr.Le _ -> false | Constr.Eqz _ -> true) atoms)
  in
  let atom_row = Array.make (Array.length atom_eqz) 0 in
  for a = 1 to Array.length atom_eqz - 1 do
    atom_row.(a) <- (atom_row.(a - 1) + if atom_eqz.(a - 1) then 2 else 1)
  done;
  {
    syms;
    row_const = Array.map Linexpr.const_part rows;
    row_start;
    term_sym;
    term_coef;
    atom_row;
    atom_eqz;
    sym_rows = Array.map Array.of_list occurs;
  }

exception Empty

let mark_rows k dirty i =
  let rows = k.sym_rows.(i) in
  for j = 0 to Array.length rows - 1 do
    dirty.(rows.(j)) <- true
  done

(* Propagate row [r] once: with [min] the row's minimum over the store,
   each term [c*x] gets [c*x <= -(min - own contribution)].  A term
   tightens only the bound outside its own contribution ([hi] when
   [c > 0], [lo] when [c < 0]), so [min] holds for the whole row, and
   [min - own] equals the re-summed minimum of the rest even when the
   sums wrap.  Marks the rows of every symbol it moves dirty and returns
   whether it moved any. *)
let run_row k lo hi dirty r =
  let first = k.row_start.(r) and last = k.row_start.(r + 1) - 1 in
  let min = ref k.row_const.(r) in
  for t = first to last do
    let c = k.term_coef.(t) and i = k.term_sym.(t) in
    min := !min + if c >= 0 then c * lo.(i) else c * hi.(i)
  done;
  let min = !min in
  if min > 0 then raise Empty;
  let changed = ref false in
  for t = first to last do
    let c = k.term_coef.(t) and i = k.term_sym.(t) in
    if c > 0 then begin
      let nhi = Int.min (fdiv (-(min - (c * lo.(i)))) c) hi.(i) in
      if lo.(i) > nhi then raise Empty;
      if nhi <> hi.(i) then begin
        hi.(i) <- nhi;
        mark_rows k dirty i;
        changed := true
      end
    end
    else begin
      let nlo = Int.max (cdiv (-(min - (c * hi.(i)))) c) lo.(i) in
      if nlo > hi.(i) then raise Empty;
      if nlo <> lo.(i) then begin
        lo.(i) <- nlo;
        mark_rows k dirty i;
        changed := true
      end
    end
  done;
  !changed

(* Rounds over the rows in order until one changes nothing, at most 200.
   Re-running a row on unchanged symbols moves nothing, so skipping clean
   rows leaves every round's store, and the round count, as if every row
   ran.  A row's own moves cannot change its result, so it is clean once
   it has run. *)
let propagate k lo hi dirty =
  let nrows = Array.length k.row_const in
  let rounds = ref 200 and changed = ref true in
  while !changed && !rounds > 0 do
    decr rounds;
    changed := false;
    for r = 0 to nrows - 1 do
      if dirty.(r) then begin
        if run_row k lo hi dirty r then changed := true;
        dirty.(r) <- false
      end
    done
  done

(* Whether every atom holds with each symbol at its lower bound. *)
let satisfied k lo =
  let natoms = Array.length k.atom_row in
  let ok = ref true and a = ref 0 in
  while !ok && !a < natoms do
    let r = k.atom_row.(!a) in
    let v = ref k.row_const.(r) in
    for t = k.row_start.(r) to k.row_start.(r + 1) - 1 do
      v := !v + (k.term_coef.(t) * lo.(k.term_sym.(t)))
    done;
    ok := if k.atom_eqz.(!a) then !v = 0 else !v <= 0;
    incr a
  done;
  !ok

(* The widest unfixed symbol, ties to the lowest id; -1 if all fixed. *)
let widest lo hi =
  let best = ref (-1) in
  for i = 0 to Array.length lo - 1 do
    let l = lo.(i) and h = hi.(i) in
    if l <> h then
      if !best < 0 || hi.(!best) - lo.(!best) < h - l then best := i
  done;
  !best

(* [Found lo]: every atom holds with each symbol at its bound in [lo]. *)
type outcome = Found of int array | Dead | Gave_up

(* Branch-and-prune over a single conjunct of atoms. *)
let solve_conjunct ~max_nodes atoms =
  let k = compile atoms in
  let nodes = ref 0 in
  let rec search lo hi dirty =
    incr nodes;
    if !nodes > max_nodes then Gave_up
    else
      match propagate k lo hi dirty with
      | exception Empty -> Dead
      | () ->
          if satisfied k lo then Found lo
          else
            (* split the widest unfixed symbol: the left half on copies,
               the right half on this node's own store *)
            let i = widest lo hi in
            if i < 0 then Dead
            else
              let mid = lo.(i) + ((hi.(i) - lo.(i)) / 2) in
              let lhi = Array.copy hi and ldirty = Array.copy dirty in
              lhi.(i) <- mid;
              mark_rows k ldirty i;
              match search (Array.copy lo) lhi ldirty with
              | Dead ->
                  lo.(i) <- mid + 1;
                  mark_rows k dirty i;
                  search lo hi dirty
              | result -> result
  in
  let lo = Array.map (fun s -> fst (Sym.bounds s)) k.syms in
  let hi = Array.map (fun s -> snd (Sym.bounds s)) k.syms in
  let dirty = Array.make (Array.length k.row_const) true in
  let verdict =
    match search lo hi dirty with
    | Found lo ->
        let m = ref Model.empty in
        Array.iteri (fun i s -> m := Model.add s lo.(i) !m) k.syms;
        Sat !m
    | Dead -> Unsat
    | Gave_up -> Unknown
  in
  Obs.Metrics.incr c_conjuncts;
  Obs.Metrics.add c_nodes !nodes;
  verdict

(* Enumerate the DNF of a formula as a sequence of atom lists. *)
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
  Obs.Metrics.incr c_solves;
  let formula = Constr.conj constraints in
  let verdict =
    match formula with
    | Constr.True -> Sat Model.empty
    | Constr.False -> Unsat
    | _ ->
        let rec scan seq budget any_unknown =
          if budget = 0 then Unknown
          else
            match Seq.uncons seq with
            | None -> if any_unknown then Unknown else Unsat
            | Some (atoms, rest) -> (
                match solve_conjunct ~max_nodes atoms with
                | Sat m -> Sat m
                | Unsat -> scan rest (budget - 1) any_unknown
                | Unknown -> scan rest (budget - 1) true)
        in
        scan (dnf formula) max_conjuncts false
  in
  (match verdict with Unknown -> Obs.Metrics.incr c_unknowns | _ -> ());
  verdict

let is_sat ?max_conjuncts ?max_nodes constraints =
  match check ?max_conjuncts ?max_nodes constraints with
  | Sat _ | Unknown -> true
  | Unsat -> false

let model_exn constraints =
  match check constraints with
  | Sat m -> m
  | Unsat -> failwith "Solve.model_exn: unsatisfiable"
  | Unknown -> failwith "Solve.model_exn: solver gave up"

let pp_result ppf = function
  | Sat m -> Fmt.pf ppf "sat (%a)" Model.pp m
  | Unsat -> Fmt.string ppf "unsat"
  | Unknown -> Fmt.string ppf "unknown"
