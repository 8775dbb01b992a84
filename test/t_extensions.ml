(* Tests for the extension features: JSON interchange, throughput floors,
   N-ary chains, token-bucket policer, and the ablation switches. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let quiet () = Exec.Meter.create (Hw.Model.null ())
let no_contracts = Perf.Ds_contract.library []

let analyze program contracts =
  Bolt.Pipeline.analyze
    ~config:Bolt.Pipeline.Config.(default |> with_contracts contracts)
    program

(* ---- JSON ---------------------------------------------------------------- *)

let test_json_roundtrip_values () =
  let examples =
    Perf.Json.
      [
        Null;
        Bool true;
        Int (-42);
        String "hello \"quoted\" \\ world\nline";
        List [ Int 1; Int 2; List [] ];
        Obj [ ("a", Int 1); ("b", Obj [ ("nested", Bool false) ]) ];
      ]
  in
  List.iter
    (fun v ->
      let s = Perf.Json.to_string v in
      match Perf.Json.of_string s with
      | Ok v' -> check_bool ("roundtrip " ^ s) true (v = v')
      | Error msg -> Alcotest.fail msg)
    examples;
  (* indent mode parses back too *)
  let v = Perf.Json.Obj [ ("xs", Perf.Json.List [ Perf.Json.Int 7 ]) ] in
  check_bool "indented roundtrip" true
    (Perf.Json.of_string (Perf.Json.to_string ~indent:true v) = Ok v)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Perf.Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted " ^ s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated" ]

let prop_json_string_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"json string escaping roundtrips"
    QCheck2.Gen.(string_size ~gen:(char_range '\000' '~') (int_range 0 30))
    (fun s ->
      match Perf.Json.of_string (Perf.Json.to_string (Perf.Json.String s)) with
      | Ok (Perf.Json.String s') -> s = s'
      | _ -> false)

let test_contract_json_roundtrip () =
  let t = analyze Nf.Nat.program (Nf.Nat.contracts ()) in
  let contract = Bolt.Pipeline.contract t ~classes:(Nf.Nat.classes ()) in
  match
    Perf.Contract_io.contract_of_string
      (Perf.Contract_io.contract_to_string ~indent:true contract)
  with
  | Error msg -> Alcotest.fail msg
  | Ok back ->
      check_string "nf name" contract.Perf.Contract.nf back.Perf.Contract.nf;
      List.iter2
        (fun (a : Perf.Contract.entry) (b : Perf.Contract.entry) ->
          check_string "class" a.Perf.Contract.class_name
            b.Perf.Contract.class_name;
          check_bool "cost preserved" true
            (Perf.Cost_vec.equal a.Perf.Contract.cost b.Perf.Contract.cost))
        contract.Perf.Contract.entries back.Perf.Contract.entries

let ( let* ) = Perf.Json.( let* )

let test_ds_contract_json_roundtrip () =
  List.iter
    (fun dsc ->
      match
        let json = Perf.Contract_io.ds_contract_to_json dsc in
        let* parsed = Perf.Json.of_string (Perf.Json.to_string json) in
        Perf.Contract_io.ds_contract_of_json parsed
      with
      | Ok back ->
          check_string "kind" dsc.Perf.Ds_contract.ds_kind
            back.Perf.Ds_contract.ds_kind;
          check_int "branches"
            (List.length dsc.Perf.Ds_contract.branches)
            (List.length back.Perf.Ds_contract.branches)
      | Error msg -> Alcotest.fail msg)
    (Dslib.Flow_table.Recipe.contract ~key_len:5 ()
    @ Dslib.Token_bucket.Recipe.contract)

let prop_expr_json_roundtrip =
  let gen_expr =
    QCheck2.Gen.(
      list_size (int_range 0 5)
        (pair (int_range 0 500)
           (list_size (int_range 0 3)
              (oneofl Perf.Pcv.[ expired; collisions; traversals ])))
      >|= fun terms ->
      Perf.Perf_expr.sum
        (List.map (fun (k, vs) -> Perf.Perf_expr.term k vs) terms))
  in
  QCheck2.Test.make ~count:200 ~name:"perf_expr json roundtrip" gen_expr
    (fun expr ->
      match
        Perf.Contract_io.expr_of_json (Perf.Contract_io.expr_to_json expr)
      with
      | Ok back -> Perf.Perf_expr.equal expr back
      | Error _ -> false)

(* ---- Token bucket / policer ---------------------------------------------- *)

let test_token_bucket_semantics () =
  let tb =
    Dslib.Token_bucket.create ~base:0x6000_0000 ~rate:10 ~burst:100 ~now:0 ()
  in
  check_int "starts full" 100 (Dslib.Token_bucket.tokens tb ~now:0);
  check_int "conforms" 1 (Dslib.Token_bucket.conform tb (quiet ()) ~bytes:60 ~now:0);
  check_int "drained" 40 (Dslib.Token_bucket.tokens tb ~now:0);
  check_int "exceeds" 0 (Dslib.Token_bucket.conform tb (quiet ()) ~bytes:60 ~now:0);
  (* refill at 10/unit: after 3 units there are 70 tokens *)
  check_int "refills" 70 (Dslib.Token_bucket.tokens tb ~now:3);
  check_int "conforms again" 1
    (Dslib.Token_bucket.conform tb (quiet ()) ~bytes:60 ~now:3);
  (* never exceeds burst *)
  check_int "capped" 100 (Dslib.Token_bucket.tokens tb ~now:1_000_000)

let test_token_bucket_contract_dominates () =
  let tb =
    Dslib.Token_bucket.create ~base:0x6100_0000 ~rate:5 ~burst:200 ~now:0 ()
  in
  let contract =
    Perf.Ds_contract.library Dslib.Token_bucket.Recipe.contract
  in
  let c = Perf.Ds_contract.find_exn contract ~ds_kind:"token_bucket"
      ~meth:"conform" in
  for i = 1 to 50 do
    let meter = Exec.Meter.create (Hw.Model.conservative ()) in
    let r = Dslib.Token_bucket.conform tb meter ~bytes:60 ~now:(i * 4) in
    let tag = if r = 1 then "conform" else "exceed" in
    let branch = Perf.Ds_contract.find_branch_exn c ~tag in
    let bound m = Perf.Cost_vec.eval_exn [] branch.Perf.Ds_contract.cost m in
    check_bool "ic bound" true (bound Perf.Metric.Instructions >= Exec.Meter.ic meter);
    check_bool "ma bound" true
      (bound Perf.Metric.Memory_accesses >= Exec.Meter.ma meter);
    check_bool "cycles bound" true
      (bound Perf.Metric.Cycles >= Exec.Meter.cycles meter)
  done

let test_token_bucket_refill_edges () =
  (* zero-elapsed clock: same [now] must not refill anything *)
  let tb =
    Dslib.Token_bucket.create ~base:0x6200_0000 ~rate:10 ~burst:100 ~now:0 ()
  in
  check_int "spend" 1 (Dslib.Token_bucket.conform tb (quiet ()) ~bytes:60 ~now:5);
  check_int "no refill at same now" 40 (Dslib.Token_bucket.tokens tb ~now:5);
  check_int "zero-elapsed excess" 0
    (Dslib.Token_bucket.conform tb (quiet ()) ~bytes:60 ~now:5);
  (* a clock that goes backwards is ignored, not a negative refill *)
  check_int "backwards clock ignored" 40 (Dslib.Token_bucket.tokens tb ~now:3);
  (* burst saturation: the level caps exactly at burst, never beyond *)
  check_int "saturates at burst" 100 (Dslib.Token_bucket.tokens tb ~now:500);
  check_int "stays at burst" 100 (Dslib.Token_bucket.tokens tb ~now:501);
  (* exact conformance boundary: bytes = tokens conforms and empties the
     bucket; one more byte is out of profile *)
  let tb2 =
    Dslib.Token_bucket.create ~base:0x6300_0000 ~rate:1 ~burst:64 ~now:0 ()
  in
  check_int "tokens = bytes conforms" 1
    (Dslib.Token_bucket.conform tb2 (quiet ()) ~bytes:64 ~now:0);
  check_int "emptied exactly" 0 (Dslib.Token_bucket.tokens tb2 ~now:0);
  check_int "one byte over is excess" 0
    (Dslib.Token_bucket.conform tb2 (quiet ()) ~bytes:1 ~now:0);
  check_int "one token, one byte" 1
    (Dslib.Token_bucket.conform tb2 (quiet ()) ~bytes:1 ~now:1)

let test_token_bucket_huge_delta_no_overflow () =
  (* pathological clock jumps: [rate * delta] would overflow 63-bit
     arithmetic without the refill clamp; the level must land exactly on
     [burst] and stay usable *)
  let rate = 1_000_003 and burst = 5_000_000 in
  let tb =
    Dslib.Token_bucket.create ~base:0x6400_0000 ~rate ~burst ~now:0 ()
  in
  ignore (Dslib.Token_bucket.conform tb (quiet ()) ~bytes:burst ~now:0);
  check_int "drained" 0 (Dslib.Token_bucket.tokens tb ~now:0);
  let huge = 1 lsl 45 in
  check_int "clamped to burst, no overflow" burst
    (Dslib.Token_bucket.tokens tb ~now:huge);
  check_int "still conforms after the jump" 1
    (Dslib.Token_bucket.conform tb (quiet ()) ~bytes:burst ~now:huge);
  (* a second jump from a non-zero level must clamp identically *)
  check_int "second jump clamps too" burst
    (Dslib.Token_bucket.tokens tb ~now:(2 * huge))

let test_policer_pipeline () =
  let t = analyze Nf.Policer.program (Nf.Policer.contracts ()) in
  check_int "all solved" 0 t.Bolt.Pipeline.unsolved;
  let contract = Bolt.Pipeline.contract t ~classes:(Nf.Policer.classes ()) in
  let at name =
    Result.get_ok
      (Perf.Contract.predict contract ~class_name:name []
         Perf.Metric.Instructions)
  in
  check_bool "conformant costliest" true (at "Conformant" > at "Out of profile");
  check_bool "invalid cheapest" true (at "Invalid" < at "Out of profile")

let test_policer_production () =
  let dss, _ =
    Nf.Policer.setup
      ~config:{ Nf.Policer.rate = 1; burst = 100 }
      (Dslib.Layout.allocator ())
  in
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let pkt () = Net.Build.udp ~src_ip:1 ~dst_ip:2 ~src_port:3 ~dst_port:4 () in
  let run now =
    (Exec.Interp.run ~meter ~mode:(Exec.Interp.Production dss) ~now
       Nf.Policer.program (pkt ()))
      .Exec.Interp.outcome
  in
  check_bool "first conforms" true (run 0 = Exec.Interp.Sent 0);
  (* 60-byte packets against a 100-token bucket at 1/us: the second
     back-to-back packet is out of profile *)
  check_bool "second dropped" true (run 1 = Exec.Interp.Dropped);
  check_bool "recovers" true (run 200 = Exec.Interp.Sent 0)

(* ---- Throughput ------------------------------------------------------------ *)

let test_throughput_bounds () =
  let t = analyze (Nf.Router.program `Dir24_8) (Nf.Router.contracts `Dir24_8) in
  let classes = Nf.Router.classes `Dir24_8 in
  let bounds = Bolt.Throughput.of_classes ~freq_hz:3_300_000_000 t classes in
  check_int "one bound per class" (List.length classes) (List.length bounds);
  List.iter
    (fun (b : Bolt.Throughput.bound) ->
      check_bool "positive pps" true (b.Bolt.Throughput.min_pps > 0.))
    bounds;
  (* batching can only help *)
  let batched =
    Bolt.Throughput.of_classes ~freq_hz:3_300_000_000 ~batch:32 t classes
  in
  List.iter2
    (fun (a : Bolt.Throughput.bound) (b : Bolt.Throughput.bound) ->
      check_bool "amortisation helps" true
        (b.Bolt.Throughput.min_pps >= a.Bolt.Throughput.min_pps))
    bounds batched;
  check_bool "framing cost positive" true (Bolt.Throughput.framing_cycles > 0)

(* ---- N-ary chains ----------------------------------------------------------- *)

let test_chain3 () =
  let chain = Topo.Analysis.run (Experiments.Extensions.chain3_graph ()) in
  check_int "all tuples solved" 0 chain.Topo.Analysis.unsolved;
  check_bool "tuples exist" true (chain.Topo.Analysis.routes <> []);
  (* some tuple traverses all three NFs, some die at the firewall *)
  let lengths =
    List.map
      (fun (r : Topo.Analysis.route) -> List.length r.Topo.Analysis.steps)
      chain.Topo.Analysis.routes
  in
  check_bool "full traversals" true (List.mem 3 lengths);
  check_bool "early drops" true (List.mem 1 lengths);
  (* joint bound tighter than adding the three worst cases *)
  let naive =
    Perf.Cost_vec.sum
      [
        Bolt.Pipeline.worst_case (analyze Nf.Firewall.program no_contracts);
        Bolt.Pipeline.worst_case
          (analyze Nf.Policer.program (Nf.Policer.contracts ()));
        Bolt.Pipeline.worst_case (analyze Nf.Static_router.program no_contracts);
      ]
  in
  let binding = [ (Perf.Pcv.ip_options, 3) ] in
  let ic v =
    Perf.Perf_expr.eval_exn binding
      (Perf.Cost_vec.get v Perf.Metric.Instructions)
  in
  check_bool "joint < naive" true
    (ic (Topo.Analysis.worst chain) < ic naive)

(* ---- Ablation switches ------------------------------------------------------- *)

let test_dram_only_dominates_conservative () =
  let with_l1 = analyze Nf.Nat.program (Nf.Nat.contracts ()) in
  let without =
    Bolt.Pipeline.analyze
      ~config:
        Bolt.Pipeline.Config.(
          default
          |> with_contracts (Nf.Nat.contracts ())
          |> with_cycle_model Hw.Model.dram_only)
      Nf.Nat.program
  in
  List.iter
    (fun cls ->
      match
        ( Bolt.Pipeline.predict with_l1 cls Perf.Metric.Cycles,
          Bolt.Pipeline.predict without cls Perf.Metric.Cycles )
      with
      | Ok a, Ok b -> check_bool "dram_only is looser" true (b >= a)
      | _ -> Alcotest.fail "unbound PCV")
    (Nf.Nat.classes ())

let test_linearization_flag_restores () =
  check_bool "default on" true !Symbex.Value.exact_linearization;
  (try
     Symbex.Value.with_linearization false (fun () ->
         check_bool "off inside" false !Symbex.Value.exact_linearization;
         failwith "boom")
   with Failure _ -> ());
  check_bool "restored after exception" true !Symbex.Value.exact_linearization

let suite =
  [
    Alcotest.test_case "json value roundtrips" `Quick
      test_json_roundtrip_values;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "contract json roundtrip" `Slow
      test_contract_json_roundtrip;
    Alcotest.test_case "ds contract json roundtrip" `Quick
      test_ds_contract_json_roundtrip;
    Alcotest.test_case "token bucket semantics" `Quick
      test_token_bucket_semantics;
    Alcotest.test_case "token bucket contract" `Quick
      test_token_bucket_contract_dominates;
    Alcotest.test_case "token bucket refill edges" `Quick
      test_token_bucket_refill_edges;
    Alcotest.test_case "token bucket huge clock jumps" `Quick
      test_token_bucket_huge_delta_no_overflow;
    Alcotest.test_case "policer pipeline" `Quick test_policer_pipeline;
    Alcotest.test_case "policer production" `Quick test_policer_production;
    Alcotest.test_case "throughput bounds" `Quick test_throughput_bounds;
    Alcotest.test_case "three-NF chain" `Slow test_chain3;
    Alcotest.test_case "dram_only ablation dominates" `Slow
      test_dram_only_dominates_conservative;
    Alcotest.test_case "linearization flag" `Quick
      test_linearization_flag_restores;
    QCheck_alcotest.to_alcotest prop_json_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_expr_json_roundtrip;
  ]
