(* Tests for the Exec.Pool domain pool and the parallel BOLT pipeline's
   determinism guarantee (analyze ~jobs:n is bit-identical to serial). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_map_is_list_map () =
  let items = List.init 97 (fun i -> i - 11) in
  let f x = (x * x) - (3 * x) + 7 in
  let expected = List.map f items in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs:%d preserves order" jobs)
        expected
        (Exec.Pool.map ~jobs f items))
    [ 1; 2; 4; 9 ]

let test_map_edge_cases () =
  Alcotest.(check (list int)) "empty list" [] (Exec.Pool.map ~jobs:4 succ []);
  Alcotest.(check (list int))
    "more jobs than items" [ 2; 3 ]
    (Exec.Pool.map ~jobs:8 succ [ 1; 2 ]);
  Alcotest.(check (list int))
    "single item" [ 42 ]
    (Exec.Pool.map ~jobs:4 (fun _ -> 42) [ 0 ])

exception Boom of int

let test_map_exception_propagation () =
  (* several items raise; the pool must re-raise for the lowest index *)
  let f x = if x mod 3 = 0 then raise (Boom x) else x in
  List.iter
    (fun jobs ->
      match Exec.Pool.map ~jobs f [ 1; 2; 6; 4; 3; 9 ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n ->
          check_int (Printf.sprintf "jobs:%d lowest index wins" jobs) 6 n)
    [ 1; 4 ]

let test_default_jobs_env () =
  let restore =
    match Sys.getenv_opt "BOLT_JOBS" with
    | Some v -> fun () -> Unix.putenv "BOLT_JOBS" v
    | None -> fun () -> Unix.putenv "BOLT_JOBS" ""
  in
  Fun.protect ~finally:restore (fun () ->
      Unix.putenv "BOLT_JOBS" "3";
      check_int "BOLT_JOBS honoured" 3 (Exec.Pool.default_jobs ());
      Unix.putenv "BOLT_JOBS" "0";
      check_bool "non-positive ignored" true (Exec.Pool.default_jobs () >= 1);
      Unix.putenv "BOLT_JOBS" "many";
      check_bool "garbage ignored" true (Exec.Pool.default_jobs () >= 1))

let test_workers_reuse_and_stop () =
  let w = Exec.Pool.Workers.create 3 in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.Workers.stop w)
    (fun () ->
      check_int "size counts the caller" 4 (Exec.Pool.Workers.size w);
      (* persistent workers serve many jobs without respawning *)
      let acc = Array.make 4 0 in
      for _ = 1 to 5 do
        Exec.Pool.Workers.run w (fun i -> acc.(i) <- acc.(i) + i)
      done;
      Alcotest.(check (array int))
        "every index ran every job" [| 0; 5; 10; 15 |] acc;
      (match Exec.Pool.Workers.run w (fun i -> if i > 0 then raise (Boom i))
       with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom n -> check_int "lowest failing index wins" 1 n);
      (* the pool survives a failing job *)
      Exec.Pool.Workers.run w (fun i -> acc.(i) <- -i);
      Alcotest.(check (array int))
        "usable after an exception" [| 0; -1; -2; -3 |] acc);
  Exec.Pool.Workers.stop w;
  (* stop is idempotent; run after stop is a programming error *)
  match Exec.Pool.Workers.run w (fun _ -> ()) with
  | _ -> Alcotest.fail "expected Invalid_argument after stop"
  | exception Invalid_argument _ -> ()

(* The engine's feasibility queries go through the shared solver cache;
   re-exploring the same program must be answered entirely from cache. *)
let test_explore_populates_solver_cache () =
  Solver.Cache.reset ();
  let explore () =
    ignore
      (Symbex.Engine.explore ~models:Bolt.Ds_models.default Nf.Nat.program)
  in
  explore ();
  let s1 = Solver.Cache.stats () in
  check_bool "first explore misses" true (s1.Solver.Cache.misses > 0);
  explore ();
  let s2 = Solver.Cache.stats () in
  check_int "second explore adds no misses" s1.Solver.Cache.misses
    s2.Solver.Cache.misses;
  check_bool "second explore hits" true
    (s2.Solver.Cache.hits > s1.Solver.Cache.hits)

let suite =
  [
    Alcotest.test_case "map equals List.map" `Quick test_map_is_list_map;
    Alcotest.test_case "map edge cases" `Quick test_map_edge_cases;
    Alcotest.test_case "exception propagation" `Quick
      test_map_exception_propagation;
    Alcotest.test_case "BOLT_JOBS env" `Quick test_default_jobs_env;
    Alcotest.test_case "persistent workers reuse and stop" `Quick
      test_workers_reuse_and_stop;
    Alcotest.test_case "explore populates solver cache" `Quick
      test_explore_populates_solver_cache;
  ]
