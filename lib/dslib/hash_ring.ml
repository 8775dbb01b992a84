let kind = "hash_ring"

type t = {
  mutable table : int array;
  size : int;
  base : int;
  mutable backend_list : int list;
}

let mix a b = (((a * 0x9e3779b1) lxor (b * 0x85ebca77)) land max_int)

(* Maglev table population: each backend fills slots in the order of its
   own permutation of the table; the backend whose next preferred slot is
   free takes it, round-robin. *)
let populate ~size ~backends =
  let n = List.length backends in
  let arr = Array.of_list backends in
  let offsets = Array.map (fun b -> mix b 1 mod size) arr in
  let skips = Array.map (fun b -> (mix b 2 mod (size - 1)) + 1) arr in
  let next = Array.make n 0 in
  let table = Array.make size (-1) in
  let filled = ref 0 in
  let i = ref 0 in
  while !filled < size do
    let b = !i mod n in
    (* advance backend b's permutation to its next free slot *)
    let rec place () =
      let j = next.(b) in
      next.(b) <- j + 1;
      let slot = (offsets.(b) + (j * skips.(b))) mod size in
      if table.(slot) < 0 then begin
        table.(slot) <- arr.(b);
        incr filled
      end
      else place ()
    in
    if !filled < size then place ();
    incr i
  done;
  table

let is_prime n =
  if n < 2 then false
  else
    let rec loop d = d * d > n || (n mod d <> 0 && loop (d + 1)) in
    loop 2

let create ~base ~table_size ~backends =
  if table_size < 2 then invalid_arg "Hash_ring.create: table too small";
  (* a prime size guarantees every backend's (offset, skip) stride is a
     full permutation, so population always terminates *)
  if not (is_prime table_size) then
    invalid_arg "Hash_ring.create: table size must be prime";
  if backends = [] then invalid_arg "Hash_ring.create: no backends";
  {
    table = populate ~size:table_size ~backends;
    size = table_size;
    base;
    backend_list = backends;
  }

let table_size t = t.size
let backends t = t.backend_list

let rebuild t ~backends =
  if backends = [] then invalid_arg "Hash_ring.rebuild: no backends";
  t.table <- populate ~size:t.size ~backends;
  t.backend_list <- backends

let backend_for t meter h =
  Costing.charge_alu meter 2;
  let slot = h mod t.size in
  Costing.charge_load meter ~addr:(t.base + (4 * slot)) ();
  Costing.charge_alu meter 1;
  t.table.(slot)

let backend_for_quiet t h = backend_for t (Exec.Meter.create (Hw.Model.null ())) h

let share t backend =
  let count = Array.fold_left (fun acc b -> if b = backend then acc + 1 else acc) 0 t.table in
  float_of_int count /. float_of_int t.size

(* Sink twin of [backend_for], charge for charge (see {!Hash_map} for
   the discipline). *)
module S = Costing.Sink

let fast_backend_for t s h =
  S.alu s 2;
  let slot = h mod t.size in
  S.load s ~addr:(t.base + (4 * slot)) ();
  S.alu s 1;
  t.table.(slot)

let to_ds t =
  let call meter meth (args : int array) =
    match meth with
    | "backend_for" -> backend_for t meter args.(0)
    | other -> invalid_arg ("hash_ring: unknown method " ^ other)
  in
  let fast_path (s : Exec.Ds.sink) meth =
    match meth with
    | "backend_for" ->
        Some (fun (args : int array) -> fast_backend_for t s args.(0))
    | _ -> None
  in
  Exec.Ds.make ~fast_path ~kind call

module Recipe = struct
  open Perf

  let contract =
    let ic = Perf_expr.const 4 and ma = Perf_expr.const 1 in
    let open Ds_contract in
    [
      make ~ds_kind:kind ~meth:"backend_for"
        [
          branch ~tag:"ok" ~note:"single table read"
            (Cost_vec.make ~ic ~ma
               ~cycles:(Costing.cycles_upper ~ic ~ma:(Perf_expr.const 1)));
        ];
    ]
end
