module IM = Map.Make (Int)

type t = (Sym.t * int) IM.t

let empty = IM.empty
let add s v t = IM.add (Sym.id s) (s, v) t

let value t s =
  match IM.find_opt (Sym.id s) t with
  | Some (_, v) -> v
  | None -> fst (Sym.bounds s)

let mem t s = IM.mem (Sym.id s) t
let union a b = IM.union (fun _ x _ -> Some x) a b
let bindings t = List.map snd (IM.bindings t)
let eval t lin = Linexpr.eval (value t) lin

let rec holds t = function
  | Constr.True -> true
  | Constr.False -> false
  | Constr.Atom (Constr.Le lin) -> eval t lin <= 0
  | Constr.Atom (Constr.Eqz lin) -> eval t lin = 0
  | Constr.And parts -> List.for_all (holds t) parts
  | Constr.Or parts -> List.exists (holds t) parts

let satisfies t cs = List.for_all (holds t) cs

let pp ppf t =
  let pp_one ppf (s, v) = Fmt.pf ppf "%a=%d" Sym.pp s v in
  Fmt.(list ~sep:(any ", ") pp_one) ppf (bindings t)
