type call = {
  index : int;
  instance : string;
  kind : string;
  meth : string;
  tag : string;
  ret : Solver.Linexpr.t;
}

type pcv_loop = { name : string; bound : int }
type action = Forward of Value.t | Drop | Flood

type t = {
  id : int;
  constraints : Solver.Constr.t list;
  checked : int;
  calls : call list;
  loops : pcv_loop list;
  decisions : bool list;
      (** every [If]/[Unroll] condition outcome assumed along the path,
          in program order (PCV-loop interiors excluded) — a concrete
          replay must reproduce exactly this sequence to be priced as
          this path *)
  action : action;
  view : Spacket.view;
}

let split_checked t =
  let rec go n acc rest =
    if n = 0 then (List.rev acc, rest)
    else
      match rest with
      | c :: rest -> go (n - 1) (c :: acc) rest
      | [] -> (List.rev acc, [])
  in
  go t.checked [] t.constraints

let tags_of t ~instance ~meth =
  List.filter_map
    (fun c ->
      if c.instance = instance && c.meth = meth then Some c.tag else None)
    t.calls

let pp_action ppf = function
  | Forward v -> Fmt.pf ppf "forward(%a)" Value.pp v
  | Drop -> Fmt.string ppf "drop"
  | Flood -> Fmt.string ppf "flood"

let pp ppf t =
  Fmt.pf ppf "@[<v>path %d: %a@,  calls: %a@,  constraints: %d@]" t.id
    pp_action t.action
    Fmt.(
      list ~sep:(any "; ") (fun ppf c ->
          pf ppf "%s.%s[%s]" c.instance c.meth c.tag))
    t.calls
    (List.length t.constraints)
