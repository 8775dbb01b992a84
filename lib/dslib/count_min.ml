let kind = "count_min"

type t = {
  rows : int;
  width : int;
  counters : int array;  (** rows * width, flattened *)
  base : int;
}

let create ~base ~rows ~width =
  if rows < 1 || rows > 8 then invalid_arg "Count_min.create: rows in 1..8";
  if width < 2 || width land (width - 1) <> 0 then
    invalid_arg "Count_min.create: width must be a power of two";
  { rows; width; counters = Array.make (rows * width) 0; base }

let rows t = t.rows
let width t = t.width

(* Row-seeded multiplicative hash with an avalanche finalizer — the
   width mask keeps only low bits, so high-bit key differences must be
   mixed down before masking.  Hashes [key.(0 .. len - 1)] in place. *)
let slot t row (key : int array) ~len =
  let h = ref ((row + 3) * 0x85ebca77 land max_int) in
  for j = 0 to len - 1 do
    h := ((!h * 0x9e3779b1) + key.(j)) land max_int
  done;
  let h = (!h lxor (!h lsr 23)) * 0x2545f491 land max_int in
  let h = h lxor (h lsr 29) in
  h land (t.width - 1)

let counter_addr t row s = t.base + (8 * ((row * t.width) + s))

(* The sketch is keyed by five words (a flow's identity). *)
let key_words = 5

(* Per row: hash (charged like the map's), one load, add, and for an
   update one store. *)
let probe t meter ~key ~write =
  Costing.charge_alu meter 2;
  let est = ref max_int in
  for row = 0 to t.rows - 1 do
    let s = slot t row key ~len:(Array.length key) in
    let addr = counter_addr t row s in
    Costing.charge_hash meter ~key_len:key_words;
    Costing.charge_load meter ~addr ();
    Costing.charge_alu meter 2;
    if write then Costing.charge_store meter ~addr ();
    let i = (row * t.width) + s in
    if write then t.counters.(i) <- t.counters.(i) + 1;
    est := min !est t.counters.(i)
  done;
  Costing.charge_alu meter 1;
  !est

let update t meter ~key = probe t meter ~key ~write:true
let estimate t meter ~key = probe t meter ~key ~write:false

(* Sink twin of [probe], charge for charge (see {!Hash_map} for the
   discipline), hashing the call's first five argument words in place
   instead of copying them out of argv. *)
module S = Costing.Sink

let fast_probe t s (args : int array) ~write =
  S.alu s 2;
  let est = ref max_int in
  for row = 0 to t.rows - 1 do
    let sl = slot t row args ~len:key_words in
    let addr = counter_addr t row sl in
    S.hash s ~key_len:key_words;
    S.load s ~addr ();
    S.alu s 2;
    if write then S.store s ~addr ();
    let i = (row * t.width) + sl in
    if write then t.counters.(i) <- t.counters.(i) + 1;
    est := min !est t.counters.(i)
  done;
  S.alu s 1;
  !est

let estimate_quiet t key =
  estimate t (Exec.Meter.create (Hw.Model.null ())) ~key

let decay t =
  Array.iteri (fun i c -> t.counters.(i) <- c / 2) t.counters

let to_ds t =
  let call meter meth (args : int array) =
    let key = Array.sub args 0 key_words in
    match meth with
    | "update" -> update t meter ~key
    | "estimate" -> estimate t meter ~key
    | other -> invalid_arg ("count_min: unknown method " ^ other)
  in
  let fast_path (s : Exec.Ds.sink) meth =
    match meth with
    | "update" -> Some (fun args -> fast_probe t s args ~write:true)
    | "estimate" -> Some (fun args -> fast_probe t s args ~write:false)
    | _ -> None
  in
  Exec.Ds.make ~fast_path ~kind call

module Recipe = struct
  open Perf

  (* per row: hash (3*5+1 = 16 IC) + load + 2 alu (+store) *)
  let vec ~rows ~write =
    let per_row = 16 + 1 + 2 + (if write then 1 else 0) in
    let ic = (rows * per_row) + 3 in
    let ma = rows * (if write then 2 else 1) in
    Cost_vec.make ~ic:(Perf_expr.const ic) ~ma:(Perf_expr.const ma)
      ~cycles:(Costing.cycles_upper ~ic:(Perf_expr.const ic)
                 ~ma:(Perf_expr.const (rows * (if write then 2 else 1))))

  let contract ~rows =
    let open Ds_contract in
    [
      make ~ds_kind:kind ~meth:"update"
        [ branch ~tag:"ok" ~note:"d hashed increments, min estimate"
            (vec ~rows ~write:true) ];
      make ~ds_kind:kind ~meth:"estimate"
        [ branch ~tag:"ok" ~note:"d hashed reads, min estimate"
            (vec ~rows ~write:false) ];
    ]
end
