open Solver

type requirement = { instance : string; meth : string; tag : string }

type t = {
  name : string;
  description : string;
  predicate : Engine.result -> Constr.t list;
  requires : requirement list;
  forbids : (string * string) list;
  bindings : Perf.Pcv.binding;
}

let make ~name ?(description = "") ?(predicate = fun _ -> [])
    ?(requires = []) ?(forbids = []) ?(bindings = []) () =
  { name; description; predicate; requires; forbids; bindings }

let req instance meth tag = { instance; meth; tag }

let field (result : Engine.result) width off =
  let w = Ir.Expr.bytes_of_width width in
  let rec build i acc =
    if i = w then acc
    else
      let b = Linexpr.sym (Spacket.byte_sym result.Engine.input (off + i)) in
      build (i + 1) (Linexpr.add (Linexpr.scale 256 acc) b)
  in
  build 0 Linexpr.zero

let field_eq width off v result =
  [ Constr.eq (field result width off) (Linexpr.const v) ]

let field_ne width off v result =
  [ Constr.ne (field result width off) (Linexpr.const v) ]

let in_port_is p (result : Engine.result) =
  [ Constr.eq (Linexpr.sym result.Engine.in_port) (Linexpr.const p) ]

let conj_preds preds result = List.concat_map (fun p -> p result) preds

let requirement_holds (path : Path.t) r =
  match Path.tags_of path ~instance:r.instance ~meth:r.meth with
  | [] -> false
  | tags -> List.for_all (String.equal r.tag) tags

let admits t ~predicate ~tags constraints =
  List.for_all (requirement_holds tags) t.requires
  && List.for_all
       (fun (instance, meth) -> Path.tags_of tags ~instance ~meth = [])
       t.forbids
  && Cache.feasible ~known:constraints predicate

let matches t result =
  let predicate = t.predicate result in
  fun (path : Path.t) -> admits t ~predicate ~tags:path path.Path.constraints
