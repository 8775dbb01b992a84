let kind = "lpm_trie"

type node = {
  mutable children : node option array;  (** index by bit value *)
  mutable port : int;
  addr : int;
}

type t = {
  root : node;
  base : int;
  default_port : int;
  mutable node_count : int;
}

let create ~base ~default_port =
  {
    root = { children = [| None; None |]; port = default_port; addr = base };
    base;
    default_port;
    node_count = 0;
  }

let bit_of ip i = (ip lsr (31 - i)) land 1

let add_route t ~prefix ~len ~port =
  if len < 0 || len > 32 then invalid_arg "Lpm_trie.add_route: bad length";
  let rec insert node i =
    if i = len then node.port <- port
    else
      let b = bit_of prefix i in
      let child =
        match node.children.(b) with
        | Some c -> c
        | None ->
            t.node_count <- t.node_count + 1;
            let c =
              {
                children = [| None; None |];
                port = node.port;
                addr = t.base + (64 * t.node_count);
              }
            in
            node.children.(b) <- Some c;
            c
      in
      insert child (i + 1)
  in
  insert t.root 0

(* Charging matches paper Table 2 exactly:
   per matched bit — child-pointer load (1 instr, 1 access) + 2 ALU +
   1 branch = 4 instr, 1 access; fixed — root move (1 instr) + port read
   (1 instr, 1 access) = 2 instr, 1 access. *)
let lookup t meter ip =
  Costing.charge_move meter 1;
  let rec walk node i =
    if i >= 32 then (node, i)
    else
      let b = bit_of ip i in
      match node.children.(b) with
      | Some child ->
          Costing.charge_alu meter 2;
          Costing.charge_load meter ~dependent:true
            ~addr:(node.addr + (8 * b))
            ();
          Costing.charge_branch meter 1;
          walk child (i + 1)
      | None -> (node, i)
  in
  let node, depth = walk t.root 0 in
  Costing.charge_load meter ~dependent:true ~addr:(node.addr + 16) ();
  Exec.Meter.observe meter Perf.Pcv.prefix_len depth;
  node.port

(* Sink twin of [lookup], charge for charge (see {!Hash_map} for the
   discipline).  The walk is top-level recursion ending in
   [fast_finish] rather than a local closure returning a (node, depth)
   pair: either would allocate on every lookup. *)
module S = Costing.Sink

let fast_finish s node depth =
  S.load s ~dependent:true ~addr:(node.addr + 16) ();
  S.observe s Perf.Pcv.prefix_len depth;
  node.port

let rec fast_walk s ip node i =
  if i >= 32 then fast_finish s node i
  else
    let b = bit_of ip i in
    match node.children.(b) with
    | Some child ->
        S.alu s 2;
        S.load s ~dependent:true ~addr:(node.addr + (8 * b)) ();
        S.branch s 1;
        fast_walk s ip child (i + 1)
    | None -> fast_finish s node i

let fast_lookup t s ip =
  S.move s 1;
  fast_walk s ip t.root 0

let lookup_quiet t ip = lookup t (Exec.Meter.create (Hw.Model.null ())) ip

(* One 64-byte line per node, root included (node addresses are
   [base + 64*i]). *)
let footprint_bytes t = 64 * (t.node_count + 1)

let matched_len t ip =
  let rec walk node i =
    if i >= 32 then i
    else
      match node.children.(bit_of ip i) with
      | Some child -> walk child (i + 1)
      | None -> i
  in
  walk t.root 0

let to_ds t =
  let call meter meth (args : int array) =
    match meth with
    | "lookup" -> lookup t meter args.(0)
    | other -> invalid_arg ("lpm_trie: unknown method " ^ other)
  in
  let fast_path (s : Exec.Ds.sink) meth =
    match meth with
    | "lookup" -> Some (fun (args : int array) -> fast_lookup t s args.(0))
    | _ -> None
  in
  Exec.Ds.make ~fast_path ~kind call

module Recipe = struct
  open Perf

  let l = Pcv.prefix_len

  let lookup_cost =
    let ic = Perf_expr.add_const 2 (Perf_expr.term 4 [ l ]) in
    let ma = Perf_expr.add_const 1 (Perf_expr.pcv l) in
    Cost_vec.make ~ic ~ma ~cycles:(Costing.cycles_upper ~ic ~ma)

  let contract =
    let open Ds_contract in
    [
      make ~ds_kind:kind ~meth:"lookup"
        [ branch ~tag:"ok" ~note:"walks l matched bits" lookup_cost ];
    ]
end
