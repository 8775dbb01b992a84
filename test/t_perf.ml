(* Tests for the performance-expression algebra (lib/perf). *)

open Perf

let e = Pcv.expired
let c = Pcv.collisions
let t_ = Pcv.traversals

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_pcv_validation () =
  check_string "name" "e" (Pcv.name Pcv.expired);
  Alcotest.check_raises "empty name" (Invalid_argument "Pcv.v: invalid PCV name \"\"")
    (fun () -> ignore (Pcv.v ""));
  (match Pcv.v "bad name" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "space accepted");
  check_bool "equal" true (Pcv.equal (Pcv.v "e") Pcv.expired)

let test_binding () =
  let b = [ (e, 3); (c, 0) ] in
  check_int "lookup" 3 (Option.get (Pcv.lookup b e));
  check_bool "missing" true (Pcv.lookup b t_ = None)

(* VigNAT-style polynomial: 359e + 80ec + 38et + 425 *)
let vignat =
  Perf_expr.sum
    [
      Perf_expr.term 359 [ e ];
      Perf_expr.term 80 [ e; c ];
      Perf_expr.term 38 [ e; t_ ];
      Perf_expr.const 425;
    ]

let test_eval () =
  let binding = [ (e, 2); (c, 3); (t_, 4) ] in
  check_int "vignat eval"
    ((359 * 2) + (80 * 2 * 3) + (38 * 2 * 4) + 425)
    (Perf_expr.eval_exn binding vignat);
  check_int "const" 425 (Perf_expr.const_part vignat);
  (match Perf_expr.eval [ (e, 1) ] vignat with
  | Error pcv -> check_string "missing pcv" "c" (Pcv.name pcv)
  | Ok _ -> Alcotest.fail "expected missing-PCV error")

let test_algebra () =
  let a = Perf_expr.term 3 [ e ] and b = Perf_expr.term 4 [ e ] in
  check_bool "add merges" true
    (Perf_expr.equal (Perf_expr.add a b) (Perf_expr.term 7 [ e ]));
  check_bool "scale" true
    (Perf_expr.equal (Perf_expr.scale 2 a) (Perf_expr.term 6 [ e ]));
  check_bool "mul" true
    (Perf_expr.equal
       (Perf_expr.mul (Perf_expr.pcv e) (Perf_expr.pcv c))
       (Perf_expr.term 1 [ e; c ]));
  check_bool "mul by const" true
    (Perf_expr.equal
       (Perf_expr.mul (Perf_expr.const 5) (Perf_expr.pcv e))
       (Perf_expr.term 5 [ e ]));
  check_bool "zero annihilates" true
    (Perf_expr.equal (Perf_expr.mul Perf_expr.zero vignat) Perf_expr.zero);
  check_bool "sub to zero" true
    (Perf_expr.equal (Perf_expr.add a (Perf_expr.scale (-1) a)) Perf_expr.zero);
  check_int "degree" 2 (Perf_expr.degree vignat);
  check_int "coefficient ec" 80 (Perf_expr.coefficient vignat [ e; c ]);
  check_int "coefficient ce (sorted)" 80 (Perf_expr.coefficient vignat [ c; e ]);
  check_int "square" 9
    (Perf_expr.eval_exn [ (e, 3) ]
       (Perf_expr.mul (Perf_expr.pcv e) (Perf_expr.pcv e)))

let test_max_upper () =
  let a = Perf_expr.add_const 10 (Perf_expr.term 3 [ e ]) in
  let b = Perf_expr.add_const 2 (Perf_expr.term 5 [ e ]) in
  let m = Perf_expr.max_upper a b in
  check_int "coef" 5 (Perf_expr.coefficient m [ e ]);
  check_int "const" 10 (Perf_expr.const_part m);
  Alcotest.check_raises "negative coefficient rejected"
    (Invalid_argument "Perf_expr.max_upper: negative coefficient")
    (fun () ->
      ignore (Perf_expr.max_upper (Perf_expr.const (-1)) Perf_expr.zero))

let test_dominates () =
  check_bool "vignat dominates its parts" true
    (Perf_expr.dominates vignat (Perf_expr.term 359 [ e ]));
  check_bool "not dominated" false
    (Perf_expr.dominates (Perf_expr.term 359 [ e ]) vignat)

let test_pp () =
  check_string "paper style"
    "80\u{00B7}c\u{00B7}e + 38\u{00B7}e\u{00B7}t + 359\u{00B7}e + 425"
    (Perf_expr.to_string vignat);
  check_string "zero" "0" (Perf_expr.to_string Perf_expr.zero);
  check_string "power" "e^2"
    (Perf_expr.to_string (Perf_expr.term 1 [ e; e ]))

(* qcheck: max_upper is a sound upper bound at non-negative points *)
let gen_poly =
  QCheck2.Gen.(
    let gen_term =
      triple (int_range 0 50)
        (int_range 0 2 >|= fun n -> List.filteri (fun i _ -> i < n) [ e; c ])
        unit
    in
    list_size (int_range 0 5) gen_term
    >|= List.map (fun (k, vs, ()) -> Perf_expr.term k vs)
    >|= Perf_expr.sum)

let gen_binding =
  QCheck2.Gen.(
    pair (int_range 0 20) (int_range 0 20) >|= fun (ve, vc) ->
    [ (e, ve); (c, vc) ])

let prop_max_upper_sound =
  QCheck2.Test.make ~count:300 ~name:"max_upper bounds both arguments"
    QCheck2.Gen.(triple gen_poly gen_poly gen_binding)
    (fun (a, b, binding) ->
      let m = Perf_expr.max_upper a b in
      let ev p = Perf_expr.eval_exn binding p in
      ev m >= ev a && ev m >= ev b)

let prop_eval_additive =
  QCheck2.Test.make ~count:300 ~name:"eval is additive"
    QCheck2.Gen.(triple gen_poly gen_poly gen_binding)
    (fun (a, b, binding) ->
      Perf_expr.eval_exn binding (Perf_expr.add a b)
      = Perf_expr.eval_exn binding a + Perf_expr.eval_exn binding b)

let prop_eval_multiplicative =
  QCheck2.Test.make ~count:300 ~name:"eval is multiplicative"
    QCheck2.Gen.(triple gen_poly gen_poly gen_binding)
    (fun (a, b, binding) ->
      Perf_expr.eval_exn binding (Perf_expr.mul a b)
      = Perf_expr.eval_exn binding a * Perf_expr.eval_exn binding b)

let test_cost_vec () =
  let v =
    Cost_vec.make ~ic:(Perf_expr.const 10) ~ma:(Perf_expr.const 3)
      ~cycles:(Perf_expr.const 100)
  in
  check_int "get ic" 10
    (Perf_expr.const_part (Cost_vec.get v Metric.Instructions));
  let w = Cost_vec.add v v in
  check_int "add" 20
    (Perf_expr.const_part (Cost_vec.get w Metric.Instructions));
  check_int "scale" 30
    (Perf_expr.const_part
       (Cost_vec.get (Cost_vec.scale 3 v) Metric.Instructions));
  check_int "eval" 100 (Cost_vec.eval_exn [] v Metric.Cycles)

let test_ds_contract () =
  let mk tag k =
    Ds_contract.branch ~tag (Cost_vec.of_consts ~ic:k ~ma:1 ~cycles:k)
  in
  let dc = Ds_contract.make ~ds_kind:"ft" ~meth:"get" [ mk "hit" 5; mk "miss" 9 ] in
  check_int "branch lookup" 5
    (Perf_expr.const_part
       (Cost_vec.get (Ds_contract.find_branch_exn dc ~tag:"hit").Ds_contract.cost
          Metric.Instructions));
  check_int "worst case" 9
    (Perf_expr.const_part
       (Cost_vec.get (Ds_contract.worst_case dc) Metric.Instructions));
  (match Ds_contract.make ~ds_kind:"x" ~meth:"m" [ mk "a" 1; mk "a" 2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate tags accepted");
  (match Ds_contract.make ~ds_kind:"x" ~meth:"m" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty branches accepted");
  let lib = Ds_contract.library [ dc ] in
  check_bool "find" true (Ds_contract.find lib ~ds_kind:"ft" ~meth:"get" <> None);
  check_bool "find other" true
    (Ds_contract.find lib ~ds_kind:"ft" ~meth:"put" = None)

let test_contract () =
  let entry name k =
    Contract.entry ~class_name:name (Cost_vec.of_consts ~ic:k ~ma:1 ~cycles:k)
  in
  let contract = Contract.make ~nf:"x" [ entry "A" 10; entry "B" 20 ] in
  check_int "predict" 10
    (Result.get_ok (Contract.predict contract ~class_name:"A" [] Metric.Instructions));
  check_int "worst" 20
    (Perf_expr.const_part
       (Cost_vec.get (Contract.worst_case contract) Metric.Instructions));
  (match Contract.make ~nf:"x" [ entry "A" 1; entry "A" 2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate classes accepted")

(* ---- Perf.Bound: the compiled per-packet check ------------------------ *)

(* PCVs for polynomials and observations: tracked ones, ones only a
   polynomial can bring into the slots ([l], [x]), and one no slot ever
   holds ([z]). *)
let bound_pcvs = Pcv.[ expired; collisions; traversals; occupancy; scan;
                       ip_options; prefix_len; v "x"; v "z" ]

(* Zero, small, and large enough that products wrap. *)
let gen_value =
  QCheck2.Gen.(
    oneof [ pure 0; int_range 1 5; int_range (1 lsl 20) (1 lsl 40); pure max_int ])

let gen_bound_pcv = QCheck2.Gen.oneofl bound_pcvs

(* Up to three variables per monomial, repeats allowed: exponents up to 3. *)
let gen_bound_poly =
  QCheck2.Gen.(
    list_size (int_range 0 6)
      (pair gen_value (list_size (int_range 0 3) gen_bound_pcv))
    >|= List.map (fun (k, vs) -> Perf_expr.term k vs)
    >|= Perf_expr.sum)

let gen_bound_case =
  QCheck2.Gen.(
    pair
      (triple gen_bound_poly gen_bound_poly gen_bound_poly)
      (list_size (int_range 0 3)
         (list_size (int_range 0 8) (pair gen_bound_pcv gen_value))))

let prop_bound_matches_eval =
  QCheck2.Test.make ~count:500
    ~name:"Bound.eval is Cost_vec.eval_exn at the max-merged binding"
    gen_bound_case
    (fun ((ic, ma, cycles), hops) ->
      let worst = Cost_vec.make ~ic ~ma ~cycles in
      let acc = Bound.acc (Bound.compile worst) in
      Bound.clear acc;
      List.iter (Bound.observe acc) hops;
      let binding =
        List.map
          (fun p ->
            ( p,
              List.fold_left
                (List.fold_left (fun m (q, v) ->
                     if Pcv.equal p q then max m v else m))
                0 hops ))
          (Cost_vec.pcvs worst)
      in
      List.for_all
        (fun m -> Bound.eval acc m = Cost_vec.eval_exn binding worst m)
        Metric.all)

(* Minor words [f ()] allocates, less the probe's own cost. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  let w1 = Gc.minor_words () in
  let w2 = Gc.minor_words () in
  int_of_float (w1 -. w0 -. (w2 -. w1))

let test_bound_no_alloc () =
  let worst =
    Cost_vec.make ~ic:vignat
      ~ma:(Perf_expr.add_const 7 (Perf_expr.term 2 [ t_; t_ ]))
      ~cycles:(Perf_expr.scale 9 vignat)
  in
  let acc = Bound.acc (Bound.compile worst) in
  let observations =
    Array.init 64 (fun i ->
        [ (e, i mod 3); (c, i mod 5); (Pcv.prefix_len, i); (t_, i mod 2) ])
  in
  let packets () =
    for i = 0 to 9_999 do
      Bound.clear acc;
      Bound.observe acc observations.(i land 63);
      Bound.observe acc [];
      ignore (Bound.eval acc Metric.Cycles : int);
      Bound.check acc ~ic:(400 + (i land 7)) ~ma:(i land 3)
    done
  in
  packets ();
  check_int "clear, observe, eval, check" 0 (minor_words packets);
  let r = Bound.report acc in
  check_int "packets" 20_000 r.Bound.packets;
  check_bool "within the bound" true (r.Bound.violations = []);
  check_bool "headroom tightened" true (r.Bound.worst_headroom_pct < 100.);
  (* a violation carries every slot's value, tracked PCVs first sorted *)
  let acc = Bound.acc (Bound.compile worst) in
  Bound.clear acc;
  Bound.observe acc [ (e, 1); (Pcv.v "z", 4) ];
  Bound.check acc ~ic:10_000 ~ma:0;
  check_string "violation"
    "CONTRACT VIOLATED on 1 of 1 packets:\n\
    \  packet 0: IC bound 784 < measured 10000 at c=0, e=1, n=0, o=0, s=0, t=0\n"
    (Fmt.str "%a" (Bound.pp_report ~subject:"contract") (Bound.report acc))

(* The Format-directive renderer the contract printers had before they
   built each line whole, kept as the reference their output must match
   byte for byte. *)
let reference_pp_expr ppf poly =
  let pp_var ppf (v, e) =
    if e = 1 then Pcv.pp ppf v else Fmt.pf ppf "%a^%d" Pcv.pp v e
  in
  let pp_mono = Fmt.(list ~sep:(any "\u{00B7}") pp_var) in
  let pp_entry ppf (mono, coeff) =
    if mono = [] then Fmt.int ppf coeff
    else if coeff = 1 then pp_mono ppf mono
    else Fmt.pf ppf "%d\u{00B7}%a" coeff pp_mono mono
  in
  match Perf_expr.terms poly with
  | [] -> Fmt.string ppf "0"
  | entries -> Fmt.(list ~sep:(any " + ") pp_entry) ppf entries

let reference_pp_cost ppf (v : Cost_vec.t) =
  Fmt.pf ppf "@[<v>IC:     %a@,MA:     %a@,cycles: %a@]" reference_pp_expr
    v.Cost_vec.ic reference_pp_expr v.Cost_vec.ma reference_pp_expr
    v.Cost_vec.cycles

let reference_pp_contract ppf (t : Contract.t) =
  Fmt.pf ppf "@[<v>performance contract for %s@," t.Contract.nf;
  List.iter
    (fun (e : Contract.entry) ->
      Fmt.pf ppf "@,%s%s  (%d path%s)@,  @[<v>%a@]@," e.Contract.class_name
        (if e.Contract.description = "" then ""
         else " — " ^ e.Contract.description)
        e.Contract.path_count
        (if e.Contract.path_count = 1 then "" else "s")
        reference_pp_cost e.Contract.cost)
    t.Contract.entries;
  Fmt.pf ppf "@]"

(* Every registry NF's and built-in topology's contract renders as the
   reference does, alone and nested at an indent in a caller's box. *)
let test_render_matches_reference () =
  let contracts =
    List.map
      (fun (e : Nf.Registry.entry) ->
        Bolt.Pipeline.contract
          (Bolt.Pipeline.analyze
             ~config:
               Bolt.Pipeline.Config.(
                 default |> with_contracts e.Nf.Registry.contracts)
             e.Nf.Registry.program)
          ~classes:e.Nf.Registry.classes)
      (Nf.Registry.all ())
    @ List.map
        (fun (b : Topo.Builtin.entry) ->
          Topo.Analysis.contract (Topo.Analysis.run b.Topo.Builtin.graph))
        (Topo.Builtin.all ())
    @ [ Contract.make ~nf:"empty" []; Contract.make ~nf:"zero"
          [ Contract.entry ~class_name:"nothing" ~path_count:0 Cost_vec.zero ] ]
  in
  List.iter
    (fun p ->
      check_string "expression" (Fmt.str "%a" reference_pp_expr p)
        (Perf_expr.to_string p))
    Perf_expr.
      [
        zero; const 7; const (-5); const 10; const 1; const (-1);
        const min_int; const max_int; term (-1) [ e ]; term 1 [ e; e; c ];
        term 1234567 [ t_ ]; term (-90) [ c; t_; t_ ];
        add (term 3 [ e; c ]) (add (term (-2) [ t_ ]) (const 99));
      ];
  List.iter
    (fun (c : Contract.t) ->
      check_string (c.Contract.nf ^ " alone")
        (Fmt.str "%a" reference_pp_contract c)
        (Fmt.str "%a" Contract.pp c);
      check_string (c.Contract.nf ^ " nested")
        (Fmt.str "@[<v 3>head@,%a@,tail@]" reference_pp_contract c)
        (Fmt.str "@[<v 3>head@,%a@,tail@]" Contract.pp c);
      check_string (c.Contract.nf ^ " after text")
        (Fmt.str "@[<v>> %a@]" reference_pp_contract c)
        (Fmt.str "@[<v>> %a@]" Contract.pp c);
      List.iter
        (fun (e : Contract.entry) ->
          check_string "cost vector"
            (Fmt.str "@[<v 5>cost@,%a@]" reference_pp_cost e.Contract.cost)
            (Fmt.str "@[<v 5>cost@,%a@]" Cost_vec.pp e.Contract.cost))
        c.Contract.entries)
    contracts

let suite =
  [
    Alcotest.test_case "pcv validation" `Quick test_pcv_validation;
    Alcotest.test_case "bindings" `Quick test_binding;
    Alcotest.test_case "eval" `Quick test_eval;
    Alcotest.test_case "algebra" `Quick test_algebra;
    Alcotest.test_case "max_upper" `Quick test_max_upper;
    Alcotest.test_case "dominates" `Quick test_dominates;
    Alcotest.test_case "pretty printing" `Quick test_pp;
    Alcotest.test_case "cost vectors" `Quick test_cost_vec;
    Alcotest.test_case "ds contracts" `Quick test_ds_contract;
    Alcotest.test_case "nf contracts" `Quick test_contract;
    Alcotest.test_case "rendering matches the Format reference" `Quick
      test_render_matches_reference;
    QCheck_alcotest.to_alcotest prop_max_upper_sound;
    QCheck_alcotest.to_alcotest prop_eval_additive;
    QCheck_alcotest.to_alcotest prop_eval_multiplicative;
    Alcotest.test_case "bound check allocates nothing" `Quick
      test_bound_no_alloc;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 27 |])
      prop_bound_matches_eval;
  ]
