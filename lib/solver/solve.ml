type result = Sat of Model.t | Unsat | Unknown

let c_solves = Obs.Metrics.counter "solver.solves"
let c_conjuncts = Obs.Metrics.counter "solver.conjuncts"
let c_nodes = Obs.Metrics.counter "solver.nodes"
let c_unknowns = Obs.Metrics.counter "solver.unknowns"
let c_atoms = Obs.Metrics.counter "solver.atoms_compiled"

(* Floor and ceiling division, correct for negative numerators. *)
let fdiv a b =
  let q = a / b and r = a mod b in
  if r <> 0 && r lxor b < 0 then q - 1 else q

let cdiv a b = -fdiv (-a) b

(* A conjunct compiled into flat rows.  Symbols are numbered densely in
   id order; [lo0]/[hi0] are their declared bounds.  Row [r] stands for
   [row_const.(r) + sum c*x <= 0] over the terms
   [row_start.(r) .. row_start.(r + 1) - 1], each a symbol index in
   [term_sym] and a coefficient in [term_coef], in the expression's term
   order.  [Le lin] is one row; [Eqz lin] is two consecutive rows, [lin]
   then [-lin]; [atom_row.(a)] is atom [a]'s first row.  The rows that
   mention symbol [i] are [sym_rows.(sym_first.(i) .. sym_first.(i + 1) - 1)],
   in row order. *)
type kernel = {
  syms : Sym.t array;
  lo0 : int array;
  hi0 : int array;
  row_const : int array;
  row_start : int array;
  term_sym : int array;
  term_coef : int array;
  atom_row : int array;
  atom_eqz : bool array;
  sym_first : int array;
  sym_rows : int array;
}

(* Index of symbol id [id] in the sorted [ids]. *)
let index_of (ids : int array) (id : int) =
  let rec go lo hi =
    let mid = (lo + hi) / 2 in
    let v = ids.(mid) in
    if v = id then mid else if v < id then go (mid + 1) hi else go lo (mid - 1)
  in
  go 0 (Array.length ids - 1)

(* [k] with [sym_first]/[sym_rows] indexed from its rows, by counting. *)
let with_sym_rows k =
  let nsyms = Array.length k.syms and nrows = Array.length k.row_const in
  let first = Array.make (nsyms + 1) 0 in
  for t = 0 to Array.length k.term_sym - 1 do
    first.(k.term_sym.(t) + 1) <- first.(k.term_sym.(t) + 1) + 1
  done;
  for i = 1 to nsyms do
    first.(i) <- first.(i) + first.(i - 1)
  done;
  let fill = Array.sub first 0 nsyms in
  let rows = Array.make (Array.length k.term_sym) 0 in
  for r = 0 to nrows - 1 do
    for t = k.row_start.(r) to k.row_start.(r + 1) - 1 do
      let i = k.term_sym.(t) in
      rows.(fill.(i)) <- r;
      fill.(i) <- fill.(i) + 1
    done
  done;
  { k with sym_first = first; sym_rows = rows }

(* The formula's boolean structure over its atom occurrences, each
   numbered by its position in a left-to-right walk of the tree. *)
type shape =
  | S_true
  | S_false
  | S_atom of int
  | S_and of shape list
  | S_or of shape list

let shape_of (f : Constr.t) =
  let atoms = ref [] and n = ref 0 in
  let rec go = function
    | Constr.True -> S_true
    | Constr.False -> S_false
    | Constr.Atom a ->
        let i = !n in
        incr n;
        atoms := a :: !atoms;
        S_atom i
    | Constr.And parts -> S_and (go_parts parts)
    | Constr.Or parts -> S_or (go_parts parts)
  and go_parts = function
    | [] -> []
    | p :: rest ->
        let p = go p in
        p :: go_parts rest
  in
  let shape = go f in
  (shape, Array.of_list (List.rev !atoms))

(* Every atom occurrence of a formula compiled once, as one kernel over
   all of the formula's symbols, atoms in tree order.  Its symbol index
   is left empty: a conjunct's kernel is assembled from these rows. *)
let compile_formula (atoms : Constr.atom array) =
  let lin (Constr.Le l | Constr.Eqz l) = l in
  let syms =
    Array.to_list atoms
    |> List.concat_map (fun a -> Linexpr.syms (lin a))
    |> List.sort_uniq Sym.compare |> Array.of_list
  in
  let ids = Array.map Sym.id syms in
  let natoms = Array.length atoms in
  let atom_eqz =
    Array.map (function Constr.Le _ -> false | Constr.Eqz _ -> true) atoms
  in
  let atom_row = Array.make natoms 0 in
  let nrows = ref 0 in
  for a = 0 to natoms - 1 do
    atom_row.(a) <- !nrows;
    nrows := !nrows + if atom_eqz.(a) then 2 else 1
  done;
  let nrows = !nrows in
  let row_start = Array.make (nrows + 1) 0 in
  for a = 0 to natoms - 1 do
    let r = atom_row.(a) and n = List.length (Linexpr.terms (lin atoms.(a))) in
    row_start.(r + 1) <- row_start.(r) + n;
    if atom_eqz.(a) then row_start.(r + 2) <- row_start.(r + 1) + n
  done;
  let row_const = Array.make nrows 0 in
  let term_sym = Array.make row_start.(nrows) 0 in
  let term_coef = Array.make row_start.(nrows) 0 in
  (* an [Eqz]'s second row is [-lin]: every coefficient and the constant
     negated, the terms in the same order *)
  for a = 0 to natoms - 1 do
    let l = lin atoms.(a) and r = atom_row.(a) in
    row_const.(r) <- Linexpr.const_part l;
    if atom_eqz.(a) then row_const.(r + 1) <- -Linexpr.const_part l;
    List.iteri
      (fun j (s, c) ->
        let i = index_of ids (Sym.id s) and t = row_start.(r) + j in
        term_sym.(t) <- i;
        term_coef.(t) <- c;
        if atom_eqz.(a) then begin
          term_sym.(row_start.(r + 1) + j) <- i;
          term_coef.(row_start.(r + 1) + j) <- -c
        end)
      (Linexpr.terms l)
  done;
  {
    syms;
    lo0 = Array.map (fun s -> fst (Sym.bounds s)) syms;
    hi0 = Array.map (fun s -> snd (Sym.bounds s)) syms;
    row_const;
    row_start;
    term_sym;
    term_coef;
    atom_row;
    atom_eqz;
    sym_first = [||];
    sym_rows = [||];
  }

(* The number of rows atom [a] of [k] compiles to. *)
let atom_rows k a = if k.atom_eqz.(a) then 2 else 1

(* The kernel of the conjunct [conj], a strictly increasing array of atom
   indices of [f]: its rows in its atom order, over its own symbols only,
   renumbered densely in id order — the kernel compiling the conjunct
   alone would build.  A conjunct of every atom is [f] itself. *)
let conjunct_kernel f conj =
  let natoms = Array.length conj in
  if natoms = Array.length f.atom_row then with_sym_rows f
  else begin
    (* [local.(i)]: the conjunct's index of formula symbol [i], or -1 *)
    let local = Array.make (Array.length f.syms) (-1) in
    let nrows = ref 0 and nterms = ref 0 in
    Array.iter
      (fun a ->
        let r = f.atom_row.(a) in
        nrows := !nrows + atom_rows f a;
        nterms := !nterms + f.row_start.(r + atom_rows f a) - f.row_start.(r);
        for t = f.row_start.(r) to f.row_start.(r + 1) - 1 do
          local.(f.term_sym.(t)) <- 0
        done)
      conj;
    let nsyms = ref 0 in
    for i = 0 to Array.length local - 1 do
      if local.(i) >= 0 then begin
        local.(i) <- !nsyms;
        incr nsyms
      end
    done;
    let nsyms = !nsyms in
    let syms = if nsyms = 0 then [||] else Array.make nsyms f.syms.(0) in
    let lo0 = Array.make nsyms 0 and hi0 = Array.make nsyms 0 in
    Array.iteri
      (fun i j ->
        if j >= 0 then begin
          syms.(j) <- f.syms.(i);
          lo0.(j) <- f.lo0.(i);
          hi0.(j) <- f.hi0.(i)
        end)
      local;
    let row_const = Array.make !nrows 0 and row_start = Array.make (!nrows + 1) 0 in
    let term_sym = Array.make !nterms 0 and term_coef = Array.make !nterms 0 in
    let atom_row = Array.make natoms 0 and atom_eqz = Array.make natoms false in
    let r = ref 0 and t = ref 0 in
    Array.iteri
      (fun k a ->
        atom_row.(k) <- !r;
        atom_eqz.(k) <- f.atom_eqz.(a);
        for fr = f.atom_row.(a) to f.atom_row.(a) + atom_rows f a - 1 do
          row_const.(!r) <- f.row_const.(fr);
          for ft = f.row_start.(fr) to f.row_start.(fr + 1) - 1 do
            term_sym.(!t) <- local.(f.term_sym.(ft));
            term_coef.(!t) <- f.term_coef.(ft);
            incr t
          done;
          incr r;
          row_start.(!r) <- !t
        done)
      conj;
    with_sym_rows
      {
        syms;
        lo0;
        hi0;
        row_const;
        row_start;
        term_sym;
        term_coef;
        atom_row;
        atom_eqz;
        sym_first = [||];
        sym_rows = [||];
      }
  end

exception Empty

let mark_rows k dirty i =
  for j = k.sym_first.(i) to k.sym_first.(i + 1) - 1 do
    dirty.(k.sym_rows.(j)) <- true
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

(* Branch-and-prune over a single conjunct's kernel. *)
let solve_conjunct ~max_nodes k =
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
  let lo = Array.copy k.lo0 and hi = Array.copy k.hi0 in
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

(* Walk the DNF of a formula's shape: [yield] gets each conjunct, as the
   reversed list of its atom indices, and returns whether to go on.  The
   order is the expansion's: an [Or]'s parts in turn, and an [And]'s
   conjuncts with its first part varying slowest.  Returns whether the
   walk ran to the end. *)
let rec walk_dnf shape rev yield =
  match shape with
  | S_true -> yield rev
  | S_false -> true
  | S_atom a -> yield (a :: rev)
  | S_or parts -> List.for_all (fun p -> walk_dnf p rev yield) parts
  | S_and parts ->
      let rec product parts rev =
        match parts with
        | [] -> yield rev
        | p :: rest -> walk_dnf p rev (fun rev -> product rest rev)
      in
      product parts rev

(* The atoms of a reversed conjunct, in order. *)
let conjunct_of_rev rev =
  let n = List.length rev in
  let conj = Array.make n 0 in
  List.iteri (fun i a -> conj.(n - 1 - i) <- a) rev;
  conj

let check ?(max_conjuncts = 4096) ?(max_nodes = 20_000) constraints =
  Obs.Metrics.incr c_solves;
  let formula = Constr.conj constraints in
  let verdict =
    match formula with
    | Constr.True -> Sat Model.empty
    | Constr.False -> Unsat
    | _ -> (
        let shape, atoms = shape_of formula in
        let f = compile_formula atoms in
        Obs.Metrics.add c_atoms (Array.length atoms);
        (* [max_conjuncts] is checked before each conjunct, and once more
           after the last *)
        let budget = ref max_conjuncts and any_unknown = ref false in
        let found = ref None in
        let try_conjunct rev =
          if !budget = 0 then false
          else
            let k = conjunct_kernel f (conjunct_of_rev rev) in
            match solve_conjunct ~max_nodes k with
            | Sat m ->
                found := Some m;
                false
            | Unsat ->
                decr budget;
                true
            | Unknown ->
                decr budget;
                any_unknown := true;
                true
        in
        ignore (walk_dnf shape [] try_conjunct);
        match !found with
        | Some m -> Sat m
        | None -> if !budget = 0 || !any_unknown then Unknown else Unsat)
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
