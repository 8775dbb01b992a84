type entry = {
  class_name : string;
  description : string;
  cost : Cost_vec.t;
  path_count : int;
}

type t = { nf : string; entries : entry list }

let entry ~class_name ?(description = "") ?(path_count = 1) cost =
  { class_name; description; cost; path_count }

let make ~nf entries =
  let names = List.map (fun e -> e.class_name) entries in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg ("Contract.make: duplicate class names in " ^ nf);
  { nf; entries }

let find t ~class_name =
  List.find_opt (fun e -> e.class_name = class_name) t.entries

let find_exn t ~class_name =
  match find t ~class_name with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "Contract.find_exn: %s has no class %S" t.nf
           class_name)

let class_names t = List.map (fun e -> e.class_name) t.entries

let worst_case t =
  Cost_vec.max_upper_list (List.map (fun e -> e.cost) t.entries)

let pcvs t =
  List.concat_map (fun e -> Cost_vec.pcvs e.cost) t.entries
  |> List.sort_uniq Pcv.compare

let predict t ~class_name binding metric =
  let e = find_exn t ~class_name in
  Cost_vec.eval binding e.cost metric

(* Every line is built whole and the lines are printed through one
   vertical box, so a contract nested in a caller's box indents each
   line at the box's column. *)
let lines t =
  ("performance contract for " ^ t.nf)
  :: List.concat_map
       (fun e ->
         ""
         :: Printf.sprintf "%s%s  (%d path%s)" e.class_name
              (if e.description = "" then "" else " — " ^ e.description)
              e.path_count
              (if e.path_count = 1 then "" else "s")
         :: List.map (fun l -> "  " ^ l) (Cost_vec.lines e.cost))
       t.entries
  @ [ "" ]

let pp ppf t = Fmt.(vbox (list ~sep:cut string)) ppf (lines t)

let pp_metric metric ppf t =
  Fmt.pf ppf "@[<v>%s — %s@," t.nf (Metric.long_name metric);
  let width =
    List.fold_left
      (fun acc e -> Stdlib.max acc (String.length e.class_name))
      0 t.entries
  in
  List.iter
    (fun e ->
      Fmt.pf ppf "  %-*s  %a@," width e.class_name Perf_expr.pp
        (Cost_vec.get e.cost metric))
    t.entries;
  Fmt.pf ppf "@]"
