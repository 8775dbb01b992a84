(* Tests for the property-based soundness fuzzer (lib/proptest).

   Three groups:

   - the generators and the runner themselves: generated programs are
     valid and analysable, campaigns are a pure function of the seed,
     round 0 replays the master seed (so a printed repro command
     replays the exact failure), shrinking reaches a minimum;

   - each differential oracle demonstrably CATCHES the class of bug it
     exists for, via the fault-injection hooks (a weakened bound, a
     stale cache, an obs-dependent analyze) —
     an oracle that can't fail tests nothing;

   - the replay-divergence regression: the handcrafted programs below
     reproduce the soundness bug the fuzzer found (an overlapping-width
     packet read is over-approximated, so the solver's witness takes a
     different concrete branch than the path being priced) and pin that
     the pipeline now detects the divergence and counts the path
     unsolved instead of pricing the wrong trace. *)

open Ir

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Generators ------------------------------------------------------ *)

let test_generated_programs_valid () =
  for seed = 1 to 150 do
    let rng = Workload.Prng.create ~seed in
    (* [Proptest.Gen_ir.program] promises every output passes validation *)
    let p = Proptest.Gen_ir.program rng in
    match Ir.Program.validate p with
    | Ok () -> ()
    | Error msg ->
        Alcotest.fail
          (Format.asprintf "seed %d: invalid program (%s)@.%a" seed msg
             Ir.Program.pp p)
  done

let test_generated_programs_analyse () =
  (* a sample of generated programs runs the full pipeline without
     raising; divergent witnesses may land in [unsolved], never escape *)
  for seed = 1 to 8 do
    let rng = Workload.Prng.create ~seed in
    let p = Proptest.Gen_ir.program rng in
    let t = Bolt.Pipeline.analyze ~config:Bolt.Pipeline.Config.default p in
    check_bool
      (Printf.sprintf "seed %d: paths accounted for" seed)
      true
      (List.length t.Bolt.Pipeline.analyses + t.Bolt.Pipeline.unsolved
      = List.length t.Bolt.Pipeline.engine.Symbex.Engine.paths)
  done

let test_generator_deterministic () =
  let prog seed =
    Format.asprintf "%a" Ir.Program.pp
      (Proptest.Gen_ir.program (Workload.Prng.create ~seed))
  in
  Alcotest.(check string) "same seed, same program" (prog 42) (prog 42);
  check_bool "different seeds differ" true (prog 42 <> prog 43)

(* ---- Shrinking ------------------------------------------------------- *)

let test_shrink_minimizes_list () =
  let input = List.init 20 Fun.id @ [ 42 ] @ List.init 20 (fun i -> i + 100) in
  let shrunk, steps =
    Proptest.Shrink.minimize
      ~still_fails:(fun l -> List.mem 42 l)
      ~candidates:Proptest.Shrink.list input
  in
  Alcotest.(check (list int)) "minimal failing sublist" [ 42 ] shrunk;
  check_bool "took shrink steps" true (steps > 0)

let test_shrink_int_candidates () =
  let cands = Proptest.Shrink.int ~lo:0 64 in
  check_bool "starts at lo" true (List.hd cands = 0);
  check_bool "original never a candidate" true (not (List.mem 64 cands))

(* ---- Runner determinism ---------------------------------------------- *)

let test_sub_seed_replay () =
  (* round 0 must reuse the master seed verbatim: that is what makes
     the printed "--seed S --runs 1" repro replay the exact failure *)
  Alcotest.(check int)
    "round 0 is the master seed" 123
    (List.hd (Proptest.Runner.sub_seeds ~seed:123 ~runs:5));
  check_int "one seed per round" 5
    (List.length (Proptest.Runner.sub_seeds ~seed:123 ~runs:5))

let test_runner_deterministic () =
  let campaign () =
    Proptest.Runner.run ~seed:11 ~runs:3 ~oracles:(Proptest.Oracle.all ()) ()
  in
  let a = campaign () and b = campaign () in
  check_bool "same seed, same outcome" true (a = b);
  check_int "checks = runs x oracles"
    (3 * List.length (Proptest.Oracle.all ()))
    a.Proptest.Runner.checks

let test_runner_deterministic_failures () =
  (* with an always-failing oracle, the failure REPORTS (shrunk
     counterexamples included) must also be a pure function of the seed *)
  let oracles =
    [ Proptest.Oracle.conservativeness ~weaken:(fun _ -> Perf.Cost_vec.zero) () ]
  in
  let campaign () = Proptest.Runner.run ~seed:7 ~runs:2 ~oracles () in
  let a = campaign () and b = campaign () in
  check_bool "failures replay identically" true
    (a.Proptest.Runner.failures = b.Proptest.Runner.failures);
  check_bool "found at least one failure" true
    (a.Proptest.Runner.failures <> [])

(* ---- Each oracle catches its seeded mutation ------------------------- *)

(* Some oracles draw a subject that sidesteps the injected fault for a
   given seed (e.g. a generated program with unsolved paths is skipped
   by conservativeness), so probe a few seeds and require one Fail. *)
let first_failure ?(seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]) (o : Proptest.Oracle.t) =
  List.find_map
    (fun seed ->
      match o.Proptest.Oracle.run ~seed with
      | Proptest.Oracle.Fail f -> Some f
      | Proptest.Oracle.Pass -> None)
    seeds

let test_catches_weakened_bound () =
  let o =
    Proptest.Oracle.conservativeness ~weaken:(fun _ -> Perf.Cost_vec.zero) ()
  in
  match first_failure o with
  | None -> Alcotest.fail "a zero worst-case bound was not caught"
  | Some f ->
      Alcotest.(check string)
        "failure names its oracle" "conservativeness" f.Proptest.Oracle.oracle;
      check_bool "repro is replayable" true
        (f.Proptest.Oracle.repro
        = Printf.sprintf "bolt fuzz --oracle conservativeness --seed %d --runs 1"
            f.Proptest.Oracle.seed)

let test_catches_stale_cache () =
  (* a "cache" that answers Unsat regardless of the query *)
  let o =
    Proptest.Oracle.cache_equivalence ~check_cached:(fun _ -> Solver.Solve.Unsat) ()
  in
  match first_failure ~seeds:[ 1; 2; 3; 4 ] o with
  | None -> Alcotest.fail "a stale cache verdict was not caught"
  | Some f ->
      Alcotest.(check string)
        "failure names its oracle" "cache_equivalence" f.Proptest.Oracle.oracle

let test_catches_obs_dependence () =
  let calls = ref 0 in
  let analyze ~config program =
    incr calls;
    let t = Bolt.Pipeline.analyze ~config program in
    if !calls mod 2 = 0 then
      { t with Bolt.Pipeline.unsolved = t.Bolt.Pipeline.unsolved + 1 }
    else t
  in
  let o = Proptest.Oracle.obs_neutrality ~analyze () in
  match o.Proptest.Oracle.run ~seed:1 with
  | Proptest.Oracle.Fail f ->
      Alcotest.(check string)
        "failure names its oracle" "obs_neutrality" f.Proptest.Oracle.oracle
  | Proptest.Oracle.Pass ->
      Alcotest.fail "obs-dependent analyze output was not caught"

let test_catches_tampered_decisions () =
  (* an engine that flips every assumed branch decision: the structural
     fidelity check must then raise at the first recorded branch, and
     the oracle must report it.  Generated programs always open with
     the [Pkt_len < 34] guard, so every path has at least one
     decision to flip. *)
  let explore ~concrete ~models program =
    let r = Symbex.Engine.explore ~concrete ~models program in
    {
      r with
      Symbex.Engine.paths =
        List.map
          (fun (p : Symbex.Path.t) ->
            {
              p with
              Symbex.Path.decisions = List.map not p.Symbex.Path.decisions;
            })
          r.Symbex.Engine.paths;
    }
  in
  let o = Proptest.Oracle.concrete_symbex_agreement ~explore () in
  match first_failure o with
  | None -> Alcotest.fail "tampered path decisions were not caught"
  | Some f ->
      Alcotest.(check string)
        "failure names its oracle" "concrete_symbex_agreement"
        f.Proptest.Oracle.oracle

let test_catches_tampered_specialize () =
  (* a binder that sneaks one extra assignment into the program before
     specializing it: every packet then costs one Move more than the
     interpreter charges.  The assigned variable is fresh, so the
     outcome is unchanged — only the exact-cost check can catch this. *)
  let specialize (p : Ir.Program.t) ~meter ~mode =
    let tampered =
      {
        p with
        Ir.Program.body =
          Ir.Stmt.assign "__tamper" (Ir.Expr.int 0) :: p.Ir.Program.body;
      }
    in
    Exec.Specialize.bind tampered ~meter ~mode
  in
  let o = Proptest.Oracle.specialized_interp_agreement ~specialize () in
  match first_failure o with
  | None -> Alcotest.fail "a tampered specialization was not caught"
  | Some f ->
      Alcotest.(check string)
        "failure names its oracle" "specialized_interp_agreement"
        f.Proptest.Oracle.oracle;
      let mentions_specialized =
        let detail = f.Proptest.Oracle.detail in
        let needle = "specialized execution diverges" in
        let n = String.length needle and l = String.length detail in
        let rec scan i =
          i + n <= l && (String.equal (String.sub detail i n) needle || scan (i + 1))
        in
        scan 0
      in
      check_bool "the failure reports the per-packet divergence" true
        mentions_specialized

(* ---- Stateful model-based oracles ------------------------------------ *)

let contains ~needle haystack =
  let n = String.length needle and l = String.length haystack in
  let rec scan i =
    i + n <= l && (String.equal (String.sub haystack i n) needle || scan (i + 1))
  in
  scan 0

let test_stateful_registry_shape () =
  let names =
    List.map (fun (o : Proptest.Oracle.t) -> o.Proptest.Oracle.name)
      (Proptest.Oracle.stateful ())
  in
  (* one model + one bounds oracle per structure, and all reachable by
     name through the same [find] the CLI uses *)
  check_int "two oracles per structure"
    (2 * List.length (Proptest.Stateful.all ()))
    (List.length names);
  List.iter
    (fun name ->
      let o = Proptest.Oracle.find name in
      Alcotest.(check string) "find resolves stateful names" name
        o.Proptest.Oracle.name)
    names;
  check_bool "stateless set unchanged by the stateful layer" true
    (not
       (List.exists
          (fun (o : Proptest.Oracle.t) ->
            contains ~needle:"stateful" o.Proptest.Oracle.name)
          (Proptest.Oracle.all ())))

let test_stateful_model_catches_tampered_fake () =
  (* every structure's model oracle must notice a +1 on each raw
     observation — an oracle that cannot fail tests nothing *)
  List.iter
    (fun (case : Proptest.Stateful.t) ->
      let o =
        Proptest.Oracle.stateful_model ~tamper:(List.map succ) case
      in
      match first_failure o with
      | None ->
          Alcotest.fail
            (case.Proptest.Stateful.name ^ ": tampered observations not caught")
      | Some f ->
          check_bool
            (case.Proptest.Stateful.name ^ ": repro is replayable")
            true
            (f.Proptest.Oracle.repro
            = Printf.sprintf "bolt fuzz --oracle %s --seed %d --runs 1"
                f.Proptest.Oracle.oracle f.Proptest.Oracle.seed);
          check_bool
            (case.Proptest.Stateful.name ^ ": counterexample is a trace")
            true
            (contains ~needle:"shrunk trace" f.Proptest.Oracle.detail))
    (Proptest.Stateful.all ())

let test_stateful_bounds_catches_weakened_contract () =
  (* zeroing every branch cost must break every structure's bound check *)
  List.iter
    (fun (case : Proptest.Stateful.t) ->
      let o =
        Proptest.Oracle.stateful_bounds
          ~weaken:(fun _ -> Perf.Cost_vec.zero)
          case
      in
      match first_failure o with
      | None ->
          Alcotest.fail
            (case.Proptest.Stateful.name ^ ": zeroed contract not caught")
      | Some f ->
          check_bool
            (case.Proptest.Stateful.name ^ ": names the metric and bound")
            true
            (contains ~needle:"bound" f.Proptest.Oracle.detail))
    (Proptest.Stateful.all ())

let test_stateful_shrinks_to_minimal_trace () =
  (* with a zeroed bound any single bounded command fails, so the greedy
     sequence shrinker must land on a one-command trace *)
  let case =
    List.find
      (fun (c : Proptest.Stateful.t) -> c.Proptest.Stateful.name = "hash_map")
      (Proptest.Stateful.all ())
  in
  let o =
    Proptest.Oracle.stateful_bounds ~weaken:(fun _ -> Perf.Cost_vec.zero) case
  in
  match first_failure o with
  | None -> Alcotest.fail "zeroed hash_map contract not caught"
  | Some f ->
      check_bool "shrunk to a single command" true
        (contains ~needle:"shrunk trace (1 commands)" f.Proptest.Oracle.detail)

let test_shrink_sequence_pointwise () =
  (* [Shrink.sequence] offers both structural sublists and per-command
     rewrites; pointwise candidates change exactly one position *)
  let cands =
    Proptest.Shrink.sequence ~shrink_cmd:(fun c -> [ c / 2 ]) [ 8; 9 ]
  in
  check_bool "structural sublist offered" true (List.mem [ 8 ] cands);
  check_bool "pointwise head shrink offered" true (List.mem [ 4; 9 ] cands);
  check_bool "pointwise tail shrink offered" true (List.mem [ 8; 4 ] cands);
  check_bool "original not offered" true (not (List.mem [ 8; 9 ] cands))

let test_stateful_campaign_passes () =
  let outcome =
    Proptest.Runner.run ~seed:2025 ~runs:10
      ~oracles:(Proptest.Oracle.stateful ())
      ()
  in
  check_int "checks = runs x oracles"
    (10 * List.length (Proptest.Oracle.stateful ()))
    outcome.Proptest.Runner.checks;
  check_int "real structures agree with fakes and contracts" 0
    (List.length outcome.Proptest.Runner.failures)

let test_default_oracles_pass () =
  let outcome =
    Proptest.Runner.run ~seed:2025 ~runs:3 ~oracles:(Proptest.Oracle.all ()) ()
  in
  check_int "no failures on the real implementations" 0
    (List.length outcome.Proptest.Runner.failures)

(* ---- Replay-divergence regression ------------------------------------ *)

(* The bug class the fuzzer found (seeds 245641675 and 288185197 of the
   conservativeness oracle): [pkt.u32[22] := 1] followed by a 16-bit
   load at offset 22 is over-approximated as an opaque fresh symbol, so
   the solver may hand the then-branch a witness whose CONCRETE xor
   (60 ^ 0 = 60) fails the branch condition.  Pricing that replay would
   attribute the else-branch's cost to the then-path — the pipeline
   must detect the divergence and count the path unsolved instead.

   [then_heavy] picks what the two branches return: with distinct
   actions the divergence is visible in the outcome kind; with the SAME
   action on both branches only the branch-trace comparison can see it,
   which pins the finer of the two checks. *)
let divergent_program ~name ~same_action =
  let opaque_cond =
    (* len ^ pkt.u16[22], with pkt.u16[22] clobbered by a wider store *)
    Expr.(Binop (Gt, Binop (Xor, Pkt_len, Pkt_load (W16, int 22)), int 78))
  in
  Program.make ~name ~state:[]
    [
      (* pin len = 60 so the witness's concrete xor is always 60 *)
      Stmt.when_ Expr.(Pkt_len != int 60) [ Stmt.drop ];
      Stmt.store32 (Expr.int 22) (Expr.int 1);
      Stmt.if_ opaque_cond
        [
          Stmt.assign "acc" (Expr.load32 (Expr.int 26));
          Stmt.assign "acc" Expr.(var "acc" + var "acc");
          Stmt.forward_port 1;
        ]
        [ (if same_action then Stmt.forward_port 1 else Stmt.drop) ];
    ]

let check_divergence ~same_action () =
  let name = if same_action then "diverge_same_action" else "diverge" in
  let t =
    Bolt.Pipeline.analyze ~config:Bolt.Pipeline.Config.default
      (divergent_program ~name ~same_action)
  in
  (* len<>60 drop, then-branch, else-branch *)
  check_int "three feasible paths" 3
    (List.length t.Bolt.Pipeline.engine.Symbex.Engine.paths);
  check_int "divergent witness counted unsolved" 1 t.Bolt.Pipeline.unsolved;
  check_int "the other two paths priced" 2
    (List.length t.Bolt.Pipeline.analyses);
  (* the contract built from the surviving paths stays conservative on
     a real packet (len 60, stored bytes read back as zeros -> drop) *)
  let worst = Bolt.Pipeline.worst_case t in
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let run =
    Exec.Interp.run ~meter ~mode:(Exec.Interp.Production []) ~now:1
      (divergent_program ~name ~same_action)
      (Net.Packet.of_bytes (Bytes.make 60 '\000'))
  in
  check_bool "surviving contract bounds the real execution" true
    (Perf.Cost_vec.eval_exn [] worst Perf.Metric.Instructions
    >= run.Exec.Interp.ic)

let test_divergent_witness_by_action () = check_divergence ~same_action:false ()
let test_divergent_witness_by_trace () = check_divergence ~same_action:true ()

let test_faithful_replay_not_flagged () =
  (* the positive control: a same-width read-back folds to the stored
     constant and the branch condition stays linear in len, so every
     witness honestly follows its path — the divergence detector must
     not flag honest replays *)
  let p =
    Program.make ~name:"faithful" ~state:[]
      [
        Stmt.store16 (Expr.int 22) (Expr.int 1);
        Stmt.if_
          Expr.(Binop (Gt, Binop (Add, Pkt_len, Pkt_load (W16, int 22)), int 79))
          [ Stmt.forward_port 1 ]
          [ Stmt.drop ];
      ]
  in
  let t = Bolt.Pipeline.analyze ~config:Bolt.Pipeline.Config.default p in
  check_int "no unsolved paths" 0 t.Bolt.Pipeline.unsolved;
  check_int "both branches priced" 2 (List.length t.Bolt.Pipeline.analyses)

let suite =
  [
    Alcotest.test_case "generated programs validate" `Quick
      test_generated_programs_valid;
    Alcotest.test_case "generated programs analyse" `Slow
      test_generated_programs_analyse;
    Alcotest.test_case "generator deterministic" `Quick
      test_generator_deterministic;
    Alcotest.test_case "shrink minimizes a list" `Quick
      test_shrink_minimizes_list;
    Alcotest.test_case "shrink int candidates" `Quick
      test_shrink_int_candidates;
    Alcotest.test_case "round 0 replays the master seed" `Quick
      test_sub_seed_replay;
    Alcotest.test_case "campaign deterministic" `Slow
      test_runner_deterministic;
    Alcotest.test_case "failure reports deterministic" `Slow
      test_runner_deterministic_failures;
    Alcotest.test_case "catches a weakened bound" `Slow
      test_catches_weakened_bound;
    Alcotest.test_case "catches a stale cache" `Quick test_catches_stale_cache;
    Alcotest.test_case "catches obs dependence" `Slow
      test_catches_obs_dependence;
    Alcotest.test_case "catches tampered path decisions" `Quick
      test_catches_tampered_decisions;
    Alcotest.test_case "catches a tampered specialization" `Quick
      test_catches_tampered_specialize;
    Alcotest.test_case "stateful oracle registry shape" `Quick
      test_stateful_registry_shape;
    Alcotest.test_case "stateful models catch tampered fakes" `Slow
      test_stateful_model_catches_tampered_fake;
    Alcotest.test_case "stateful bounds catch weakened contracts" `Slow
      test_stateful_bounds_catches_weakened_contract;
    Alcotest.test_case "stateful counterexamples shrink to one command" `Quick
      test_stateful_shrinks_to_minimal_trace;
    Alcotest.test_case "sequence shrinker offers pointwise shrinks" `Quick
      test_shrink_sequence_pointwise;
    Alcotest.test_case "stateful campaign passes" `Slow
      test_stateful_campaign_passes;
    Alcotest.test_case "default oracles pass" `Slow test_default_oracles_pass;
    Alcotest.test_case "divergent witness detected (action)" `Quick
      test_divergent_witness_by_action;
    Alcotest.test_case "divergent witness detected (trace)" `Quick
      test_divergent_witness_by_trace;
    Alcotest.test_case "faithful replay not flagged" `Quick
      test_faithful_replay_not_flagged;
  ]
