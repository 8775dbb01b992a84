type sel = Any | Port of int
type target = Node of string | Exit of string
type node = { name : string; spec : Nf.Spec.t }
type edge = { src : string; sel : sel; target : target }

type t = {
  name : string;
  description : string;
  ingress : string;
  nodes : node list;
  edges : edge list;
}

let node name spec = { name; spec }
let edge src sel target = { src; sel; target }

let make ~name ?(description = "") ~ingress ~nodes ~edges () =
  { name; description; ingress; nodes; edges }

type error =
  | Duplicate_node of string
  | Unknown_ingress of string
  | Dangling_endpoint of { src : string; dest : string }
  | Duplicate_port of { src : string; port : int }
  | Mixed_any of string
  | Cycle of string list
  | Unreachable of string

let pp_error ppf = function
  | Duplicate_node n -> Fmt.pf ppf "node %S declared twice" n
  | Unknown_ingress n -> Fmt.pf ppf "ingress %S is not a node" n
  | Dangling_endpoint { src; dest } ->
      Fmt.pf ppf "edge %s -> %s names an undeclared node" src dest
  | Duplicate_port { src; port } ->
      Fmt.pf ppf "node %S routes port %d over two edges" src port
  | Mixed_any n ->
      Fmt.pf ppf "node %S mixes an Any edge with port-selected edges" n
  | Cycle ns ->
      Fmt.pf ppf "cycle: %a" Fmt.(list ~sep:(any " -> ") string) ns
  | Unreachable n -> Fmt.pf ppf "node %S is unreachable from the ingress" n

let default_exit = "out"
let find_node t name = List.find (fun (n : node) -> n.name = name) t.nodes
let out_edges t name = List.filter (fun e -> e.src = name) t.edges
let mem t name = List.exists (fun (n : node) -> n.name = name) t.nodes

let validate t =
  let errs = ref [] in
  let err e = errs := e :: !errs in
  (* duplicate node names *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (n : node) ->
      if Hashtbl.mem seen n.name then err (Duplicate_node n.name)
      else Hashtbl.add seen n.name ())
    t.nodes;
  if not (mem t t.ingress) then err (Unknown_ingress t.ingress);
  (* dangling endpoints *)
  List.iter
    (fun e ->
      let dest_name, dest_ok =
        match e.target with
        | Node d -> (d, mem t d)
        | Exit l -> ("exit:" ^ l, true)
      in
      if not (mem t e.src && dest_ok) then
        err (Dangling_endpoint { src = e.src; dest = dest_name }))
    t.edges;
  (* per-node selector discipline *)
  List.iter
    (fun (n : node) ->
      let out = out_edges t n.name in
      let anys = List.filter (fun e -> e.sel = Any) out in
      if anys <> [] && List.length out > 1 then err (Mixed_any n.name);
      let ports = Hashtbl.create 4 in
      List.iter
        (fun e ->
          match e.sel with
          | Any -> ()
          | Port p ->
              if Hashtbl.mem ports p then
                err (Duplicate_port { src = n.name; port = p })
              else Hashtbl.add ports p ())
        out)
    t.nodes;
  (* cycles: DFS with a grey stack, reporting one witness per cycle
     entry point (only over edges whose endpoints exist) *)
  let state = Hashtbl.create 8 in
  let rec dfs stack name =
    match Hashtbl.find_opt state name with
    | Some `Black -> ()
    | Some `Grey ->
        (* witness: from the first occurrence of [name] on the stack back
           around to [name] *)
        let cycle = List.rev (name :: stack) in
        let rec from = function
          | [] -> [ name ]
          | x :: _ as l when x = name -> l
          | _ :: tl -> from tl
        in
        err (Cycle (from cycle))
    | None ->
        Hashtbl.replace state name `Grey;
        List.iter
          (fun e ->
            match e.target with
            | Node d when mem t d -> dfs (name :: stack) d
            | Node _ | Exit _ -> ())
          (out_edges t name);
        Hashtbl.replace state name `Black
  in
  List.iter (fun (n : node) -> dfs [] n.name) t.nodes;
  (* reachability from the ingress *)
  if mem t t.ingress then begin
    let reached = Hashtbl.create 8 in
    let rec visit name =
      if not (Hashtbl.mem reached name) then begin
        Hashtbl.add reached name ();
        List.iter
          (fun e ->
            match e.target with
            | Node d when mem t d -> visit d
            | Node _ | Exit _ -> ())
          (out_edges t name)
      end
    in
    visit t.ingress;
    List.iter
      (fun (n : node) ->
        if not (Hashtbl.mem reached n.name) then err (Unreachable n.name))
      t.nodes
  end;
  List.rev !errs

let validated ~name ?description ~ingress ~nodes ~edges () =
  let t = make ~name ?description ~ingress ~nodes ~edges () in
  match validate t with
  | [] -> t
  | errs ->
      invalid_arg
        (Fmt.str "Topo.Graph %S: %a" name
           Fmt.(list ~sep:(any "; ") pp_error)
           errs)

let pp ppf t =
  Fmt.pf ppf "topology %s — %s@." t.name t.description;
  List.iter
    (fun (n : node) ->
      let out = out_edges t n.name in
      let pp_edge ppf e =
        let sel =
          match e.sel with Any -> "*" | Port p -> string_of_int p
        in
        match e.target with
        | Node d -> Fmt.pf ppf "%s->%s" sel d
        | Exit l -> Fmt.pf ppf "%s->[%s]" sel l
      in
      Fmt.pf ppf "  %-12s %-14s %s%a@." n.name
        (Nf.Spec.name n.spec)
        (if n.name = t.ingress then "(ingress) " else "")
        Fmt.(list ~sep:(any " ") pp_edge)
        out)
    t.nodes
