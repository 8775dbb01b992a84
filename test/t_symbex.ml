(* Tests for the symbolic-execution engine. *)

open Ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let models = Bolt.Ds_models.default
let explore = Symbex.Engine.explore ~models

let path_count program = List.length (explore program).Symbex.Engine.paths

let test_value_concrete_folding () =
  let gen = Solver.Sym.gen () in
  let ctx = Symbex.Value.ctx gen in
  let v =
    Symbex.Value.binop ctx Expr.Add (Symbex.Value.of_int 2)
      (Symbex.Value.of_int 3)
  in
  check_bool "constant fold" true (Symbex.Value.is_concrete v = Some 5);
  let cmp =
    Symbex.Value.binop ctx Expr.Lt (Symbex.Value.of_int 2)
      (Symbex.Value.of_int 3)
  in
  check_bool "comparison folds" true (Symbex.Value.is_concrete cmp = Some 1)

(* The Euclidean linearization of masks/shifts/division must be exact:
   conjoin [x = v] with the derived constraints and check the decomposed
   value can only be the concrete result. *)
let test_value_euclid_exact () =
  let cases =
    [ (Expr.And, 0xf); (Expr.Shr, 4); (Expr.Div, 10); (Expr.Rem, 7) ]
  in
  List.iter
    (fun (op, k) ->
      for v = 0 to 40 do
        let gen = Solver.Sym.gen () in
        let ctx = Symbex.Value.ctx gen in
        let x = Solver.Sym.fresh gen ~lo:0 ~hi:255 "x" in
        let result =
          Symbex.Value.binop ctx op (Symbex.Value.of_sym x)
            (Symbex.Value.of_int k)
        in
        let side = Symbex.Value.take_side ctx in
        let expected = Semantics.apply_binop op v k in
        let result_lin = Symbex.Value.to_lin ctx result in
        let fix =
          Solver.Constr.eq (Solver.Linexpr.sym x) (Solver.Linexpr.const v)
        in
        (* result = expected must be satisfiable… *)
        check_bool
          (Printf.sprintf "op %d sat for v=%d" k v)
          true
          (Solver.Solve.is_sat
             (fix
             :: Solver.Constr.eq result_lin (Solver.Linexpr.const expected)
             :: side));
        (* …and result ≠ expected must not *)
        check_bool
          (Printf.sprintf "op %d exact for v=%d" k v)
          false
          (Solver.Solve.is_sat
             (fix
             :: Solver.Constr.ne result_lin (Solver.Linexpr.const expected)
             :: side))
      done)
    cases

let test_spacket_overlay () =
  let gen = Solver.Sym.gen () in
  let ctx = Symbex.Value.ctx gen in
  let input = Symbex.Spacket.input gen () in
  let view = Symbex.Spacket.view input in
  let v0, _ = Symbex.Spacket.load view ctx Expr.W16 ~offset:(Symbex.Value.of_int 12) in
  (* same offset loads the same symbols *)
  let v1, _ = Symbex.Spacket.load view ctx Expr.W16 ~offset:(Symbex.Value.of_int 12) in
  check_bool "stable symbols" true
    (Symbex.Value.to_lin ctx v0 = Symbex.Value.to_lin ctx v1);
  (* a store is read back *)
  let view' =
    Symbex.Spacket.store view ctx Expr.W16 ~offset:(Symbex.Value.of_int 12)
      ~value:(Symbex.Value.of_int 0x800)
  in
  let v2, _ =
    Symbex.Spacket.load view' ctx Expr.W16 ~offset:(Symbex.Value.of_int 12)
  in
  check_bool "overlay read back" true
    (Symbex.Value.is_concrete v2 = Some 0x800);
  (* the original view is unaffected (per-path functional overlay) *)
  let v3, _ = Symbex.Spacket.load view ctx Expr.W16 ~offset:(Symbex.Value.of_int 12) in
  check_bool "original view unchanged" true
    (Symbex.Value.is_concrete v3 = None)

let test_engine_trie_router_paths () =
  (* short-frame drop is pruned (min packet is 60B), leaving the
     invalid-ethertype path and the valid path *)
  let result = explore (Nf.Router.program `Trie) in
  check_int "two feasible paths" 2 (List.length result.Symbex.Engine.paths);
  check_bool "pruned the short-frame fork" true
    (result.Symbex.Engine.infeasible_pruned >= 1)

let test_engine_prunes_contradictions () =
  let p =
    Program.make ~name:"contradiction" ~state:[]
      [
        Stmt.assign "x" (Expr.load8 (Expr.int 0));
        Stmt.if_ Expr.(var "x" > int 100)
          [ Stmt.if_ Expr.(var "x" < int 50) [ Stmt.drop ] [];
            Stmt.forward_port 1 ]
          [ Stmt.drop ];
      ]
  in
  let result = explore p in
  (* x>100 ∧ x<50 is infeasible: 2 paths remain *)
  check_int "paths" 2 (List.length result.Symbex.Engine.paths);
  check_bool "pruned" true (result.Symbex.Engine.infeasible_pruned >= 1)

let test_engine_model_forks () =
  (* one stateful get forks hit/miss *)
  let p =
    Program.make ~name:"forks"
      ~state:[ { Program.instance = "t"; kind = "flow_table" } ]
      [
        Stmt.call ~ret:"v" "t" "get"
          [ Expr.int 1; Expr.int 2; Expr.int 3; Expr.int 4; Expr.int 5;
            Expr.var "now" ];
        Stmt.if_ Expr.(var "v" >= int 0) [ Stmt.forward_port 1 ] [ Stmt.drop ];
      ]
  in
  let result = explore p in
  check_int "hit and miss" 2 (List.length result.Symbex.Engine.paths);
  let tags =
    List.concat_map
      (fun path -> Symbex.Path.tags_of path ~instance:"t" ~meth:"get")
      result.Symbex.Engine.paths
    |> List.sort String.compare
  in
  check_bool "tags" true (tags = [ "hit"; "miss" ])

let test_engine_unroll_paths () =
  (* an unrolled loop over a header nibble yields one path per trip count *)
  let p =
    Program.make ~name:"unroll" ~state:[]
      [
        Stmt.assign "n" (Expr.Binop (Expr.And, Expr.load8 (Expr.int 0), Expr.int 3));
        Stmt.assign "i" (Expr.int 0);
        Stmt.While
          ( Stmt.Unroll 3,
            Expr.(var "i" < var "n"),
            [ Stmt.assign "i" Expr.(var "i" + int 1) ] );
        Stmt.drop;
      ]
  in
  check_int "4 trip counts" 4 (path_count p)

let test_engine_pcv_loop () =
  let result = explore Nf.Static_router.program in
  let with_loop =
    List.filter
      (fun path -> path.Symbex.Path.loops <> [])
      result.Symbex.Engine.paths
  in
  check_bool "parameterised paths exist" true (List.length with_loop >= 1);
  List.iter
    (fun path ->
      List.iter
        (fun l ->
          check_bool "loop pcv name" true (l.Symbex.Path.name = "n"))
        path.Symbex.Path.loops)
    with_loop

let test_engine_rejects_call_in_pcv_loop () =
  let p =
    Program.make ~name:"bad_loop"
      ~state:[ { Program.instance = "t"; kind = "flow_table" } ]
      [
        Stmt.assign "i" (Expr.int 0);
        Stmt.While
          ( Stmt.Pcv_loop ("n", 4),
            Expr.(var "i" < int 2),
            [
              Stmt.call ~ret:"s" "t" "size" [];
              Stmt.assign "i" Expr.(var "i" + int 1);
            ] );
        Stmt.drop;
      ]
  in
  match explore p with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "call inside PCV loop accepted"

let test_iclass_matching () =
  let result = explore (Nf.Router.program `Trie) in
  let classes = Nf.Router.classes `Trie in
  let invalid = List.nth classes 0 and valid = List.nth classes 1 in
  let members (cls : Symbex.Iclass.t) =
    let predicate = cls.Symbex.Iclass.predicate result in
    List.filter
      (fun (path : Symbex.Path.t) ->
        Symbex.Iclass.admits cls ~predicate ~tags:path
          path.Symbex.Path.constraints)
      result.Symbex.Engine.paths
  in
  check_int "invalid class has one path" 1 (List.length (members invalid));
  check_int "valid class has one path" 1 (List.length (members valid));
  check_bool "classes are disjoint here" true
    (members invalid <> members valid)

let test_witness_replay_consistency () =
  (* for every NAT path, the solved witness replays to the same action *)
  let result = explore Nf.Nat.program in
  let memo = Solver.Cache.memo () in
  List.iter
    (fun path ->
      match Bolt.Pipeline.witness memo result path with
      | None -> Alcotest.fail "unsolvable path"
      | Some (_, packet, stubs, in_port, now) ->
          let meter = Exec.Meter.create (Hw.Model.null ()) in
          let run =
            Exec.Interp.run ~meter ~mode:(Exec.Interp.Analysis stubs)
              ~in_port ~now Nf.Nat.program packet
          in
          check_bool "replay follows the symbolic path" true
            (Bolt.Pipeline.replay_matches path.Symbex.Path.action
               run.Exec.Interp.outcome))
    result.Symbex.Engine.paths

let test_engine_max_paths_guard () =
  (* a loop over an unconstrained byte explodes past a tiny cap *)
  let p =
    Program.make ~name:"wide" ~state:[]
      [
        Stmt.assign "n" (Expr.load8 (Expr.int 0));
        Stmt.assign "i" (Expr.int 0);
        Stmt.While
          ( Stmt.Unroll 200,
            Expr.(var "i" < var "n"),
            [ Stmt.assign "i" Expr.(var "i" + int 1) ] );
        Stmt.drop;
      ]
  in
  match Symbex.Engine.explore ~max_paths:5 ~models p with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "path explosion not detected"

let suite =
  [
    Alcotest.test_case "engine max_paths guard" `Quick
      test_engine_max_paths_guard;
    Alcotest.test_case "value constant folding" `Quick
      test_value_concrete_folding;
    Alcotest.test_case "euclid linearization exact" `Slow
      test_value_euclid_exact;
    Alcotest.test_case "symbolic packet overlay" `Quick test_spacket_overlay;
    Alcotest.test_case "trie router paths" `Quick
      test_engine_trie_router_paths;
    Alcotest.test_case "contradiction pruning" `Quick
      test_engine_prunes_contradictions;
    Alcotest.test_case "model forks" `Quick test_engine_model_forks;
    Alcotest.test_case "loop unrolling" `Quick test_engine_unroll_paths;
    Alcotest.test_case "pcv loops" `Quick test_engine_pcv_loop;
    Alcotest.test_case "call in pcv loop rejected" `Quick
      test_engine_rejects_call_in_pcv_loop;
    Alcotest.test_case "input class matching" `Quick test_iclass_matching;
    Alcotest.test_case "witness replay consistency" `Slow
      test_witness_replay_consistency;
  ]
