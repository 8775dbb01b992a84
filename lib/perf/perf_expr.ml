(* A monomial maps each PCV to its (positive) exponent; a polynomial maps
   each monomial to its (non-zero) coefficient. *)

(* Decimal digits of [n] appended without the C formatter. *)
let rec add_nat buf n =
  if n >= 10 then add_nat buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int buf n =
  if n >= 0 then add_nat buf n
  else if n = min_int then Buffer.add_string buf (Int.to_string n)
  else begin
    Buffer.add_char buf '-';
    add_nat buf (-n)
  end

module Monomial = struct
  type t = (Pcv.t * int) list
  (* invariant: sorted by PCV, exponents > 0 *)

  let empty = []

  let of_vars vars =
    let sorted = List.sort Pcv.compare vars in
    let rec group = function
      | [] -> []
      | v :: rest ->
          let same, others = List.partition (Pcv.equal v) rest in
          (v, 1 + List.length same) :: group others
    in
    group sorted

  let mul (a : t) (b : t) : t =
    let rec merge a b =
      match (a, b) with
      | [], m | m, [] -> m
      | (va, ea) :: ra, (vb, eb) :: rb ->
          let cmp = Pcv.compare va vb in
          if cmp = 0 then (va, ea + eb) :: merge ra rb
          else if cmp < 0 then (va, ea) :: merge ra b
          else (vb, eb) :: merge a rb
    in
    merge a b

  let degree (m : t) = List.fold_left (fun acc (_, e) -> acc + e) 0 m

  let compare (a : t) (b : t) =
    (* higher degree first, then lexicographic on variables *)
    let deg = Int.compare (degree b) (degree a) in
    if deg <> 0 then deg
    else
      List.compare
        (fun (va, ea) (vb, eb) ->
          let c = Pcv.compare va vb in
          if c <> 0 then c else Int.compare ea eb)
        a b

  let add_to_buffer buf (m : t) =
    List.iteri
      (fun i (v, e) ->
        if i > 0 then Buffer.add_string buf "\u{00B7}";
        Buffer.add_string buf (Pcv.name v);
        if e <> 1 then begin
          Buffer.add_char buf '^';
          add_int buf e
        end)
      m
end

module M = Map.Make (Monomial)

type t = int M.t
(* invariant: no zero coefficients *)

let zero = M.empty
let const k = if k = 0 then zero else M.singleton Monomial.empty k
let term k vars = if k = 0 then zero else M.singleton (Monomial.of_vars vars) k
let pcv v = term 1 [ v ]

let add_coeff mono k poly =
  M.update mono
    (function
      | None -> if k = 0 then None else Some k
      | Some k' -> if k + k' = 0 then None else Some (k + k'))
    poly

let add a b =
  M.union (fun _ ka kb -> if ka + kb = 0 then None else Some (ka + kb)) a b
let sum = List.fold_left add zero

let scale k poly =
  if k = 0 then zero else M.map (fun coeff -> k * coeff) poly

let mul a b =
  M.fold
    (fun ma ka acc ->
      M.fold
        (fun mb kb acc -> add_coeff (Monomial.mul ma mb) (ka * kb) acc)
        b acc)
    a zero

let add_const k poly = add (const k) poly
let is_nonneg poly = M.for_all (fun _ k -> k >= 0) poly

let max_upper a b =
  if not (is_nonneg a && is_nonneg b) then
    invalid_arg "Perf_expr.max_upper: negative coefficient";
  M.union (fun _ ka kb -> Some (Stdlib.max ka kb)) a b

let max_upper_list = List.fold_left max_upper zero

let eval binding poly =
  let exception Missing of Pcv.t in
  try
    Ok
      (M.fold
         (fun mono coeff acc ->
           let value =
             List.fold_left
               (fun acc (v, e) ->
                 match Pcv.lookup binding v with
                 | None -> raise (Missing v)
                 | Some x ->
                     let rec pow b n = if n = 0 then 1 else b * pow b (n - 1) in
                     acc * pow x e)
               1 mono
           in
           acc + (coeff * value))
         poly 0)
  with Missing v -> Error v

let eval_exn binding poly =
  match eval binding poly with
  | Ok n -> n
  | Error v ->
      invalid_arg
        (Printf.sprintf "Perf_expr.eval_exn: unbound PCV %s" (Pcv.name v))

let const_part poly =
  match M.find_opt Monomial.empty poly with None -> 0 | Some k -> k

let pcvs poly =
  M.fold
    (fun mono _ acc -> List.fold_left (fun acc (v, _) -> v :: acc) acc mono)
    poly []
  |> List.sort_uniq Pcv.compare

let is_const poly = M.for_all (fun mono _ -> mono = Monomial.empty) poly

let degree poly =
  M.fold (fun mono _ acc -> Stdlib.max acc (Monomial.degree mono)) poly 0

let terms poly = M.bindings poly

let of_terms entries =
  List.fold_left
    (fun acc (mono, coeff) ->
      let vars =
        List.concat_map (fun (v, e) -> List.init e (fun _ -> v)) mono
      in
      add acc (term coeff vars))
    zero entries

let coefficient poly vars =
  match M.find_opt (Monomial.of_vars vars) poly with
  | None -> 0
  | Some k -> k

let equal = M.equal Int.equal
let compare = M.compare Int.compare

let dominates a b =
  M.for_all
    (fun mono kb ->
      let ka = match M.find_opt mono a with None -> 0 | Some k -> k in
      ka >= kb)
    b

let add_to_buffer buf poly =
  if M.is_empty poly then Buffer.add_char buf '0'
  else
    (* Map is ordered by Monomial.compare: higher degree first, constant
       (empty monomial, degree 0) last. *)
    ignore
      (M.fold
         (fun mono coeff first ->
           if not first then Buffer.add_string buf " + ";
           (match mono with
           | [] -> add_int buf coeff
           | _ ->
               if coeff <> 1 then begin
                 add_int buf coeff;
                 Buffer.add_string buf "\u{00B7}"
               end;
               Monomial.add_to_buffer buf mono);
           false)
         poly true)

let to_string poly =
  let buf = Buffer.create 64 in
  add_to_buffer buf poly;
  Buffer.contents buf

let pp ppf poly = Format.pp_print_string ppf (to_string poly)
