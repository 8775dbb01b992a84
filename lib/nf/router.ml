(* One router, two LPM backends.  The backend choice is a value
   (Dslib.Backends.Lpm.choice), not a source-level pick: program text,
   contracts and input classes are all derived from it, and the
   `lpm_router` / `trie_router` registry names map to the two choices.

   The per-backend differences are deliberate: the dir-24-8 router
   models a production forwarder (it decrements TTL and recomputes the
   checksum), while the trie router is the paper's stylised running
   example (§2.1, Algorithm 1) and forwards the packet untouched. *)

let instance = "lpm"

open Ir.Expr
open Ir.Stmt

let name backend =
  match backend with `Dir24_8 -> "lpm_router" | `Trie -> "trie_router"

let of_name = function
  | "lpm_router" -> Some `Dir24_8
  | "trie_router" -> Some `Trie
  | _ -> None

let program backend =
  let prologue comment =
    [
      Comment comment;
      if_ (Pkt_len < int 34) [ drop ] [];
      assign "ethertype" Hdr.ethertype;
      if_ (var "ethertype" != int Hdr.ipv4_ethertype) [ drop ] [];
      assign "dst_ip" Hdr.dst_ip;
      call ~ret:"port" instance "lookup" [ var "dst_ip" ];
    ]
  in
  let state =
    [ { Ir.Program.instance; kind = Dslib.Backends.Lpm.kind backend } ]
  in
  match backend with
  | `Dir24_8 ->
      Ir.Program.make ~name:(name backend) ~state
        (prologue "parse: Ethernet + IPv4"
        @ Hdr.decrement_ttl
        @ [ forward (var "port") ])
  | `Trie ->
      Ir.Program.make ~name:(name backend) ~state
        (prologue "Algorithm 1: classify, then LPM lookup"
        @ [ forward (var "port") ])

let setup backend alloc ~routes =
  let lpm =
    Dslib.Backends.Lpm.create backend
      ~base:(Dslib.Layout.region alloc)
      ~default_port:0
  in
  List.iter
    (fun (prefix, len, port) ->
      Dslib.Backends.Lpm.add_route lpm ~prefix ~len ~port)
    routes;
  ([ (instance, lpm.Dslib.Backends.Lpm.ds) ], lpm)

let contracts backend =
  Perf.Ds_contract.library (Dslib.Backends.Lpm.contract backend)

open Symbex

let classes backend =
  match backend with
  | `Dir24_8 ->
      [
        Iclass.make ~name:"LPM1"
          ~description:"unconstrained traffic (worst case: two lookups)" ();
        Iclass.make ~name:"LPM2"
          ~description:"matched prefixes of <= 24 bits (one lookup)"
          ~requires:[ Iclass.req instance "lookup" "short" ]
          ();
      ]
  | `Trie ->
      [
        Iclass.make ~name:"Invalid packets"
          ~description:"non-IPv4 ethertype: dropped immediately"
          ~predicate:(Iclass.field_ne Ir.Expr.W16 12 Hdr.ipv4_ethertype)
          ();
        Iclass.make ~name:"Valid packets" ~description:"IPv4: trie lookup"
          ~predicate:(Iclass.field_eq Ir.Expr.W16 12 Hdr.ipv4_ethertype)
          ~requires:[ Iclass.req instance "lookup" "ok" ]
          ();
      ]

(* Paper Table 1: the trie router's stylised contract, Table 2's method
   contract plus the stateless code's stylised costs. *)
let stylized_contract =
  let open Perf in
  let lookup = Dslib.Lpm_trie.Recipe.lookup_cost in
  let add_consts ~ic ~ma vec =
    Cost_vec.make
      ~ic:(Perf_expr.add_const ic (Cost_vec.get vec Metric.Instructions))
      ~ma:(Perf_expr.add_const ma (Cost_vec.get vec Metric.Memory_accesses))
      ~cycles:(Cost_vec.get vec Metric.Cycles)
  in
  Contract.make ~nf:"Simple LPM router (stylised, paper Table 1)"
    [
      Contract.entry ~class_name:"Invalid packets"
        ~description:"non-IPv4: ethertype check, drop"
        (Cost_vec.of_consts ~ic:2 ~ma:1 ~cycles:0);
      Contract.entry ~class_name:"Valid packets"
        ~description:"IPv4: ethertype check + lpmGet + forward"
        (add_consts ~ic:3 ~ma:2 lookup);
    ]
