(* Tests for the observability layer: span nesting across pool domains,
   contract derivation staying off the pool, the Chrome-trace export
   schema, and the null backend's zero-interference guarantee. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every obs test owns the global runtime: start clean, leave it
   disabled for whoever runs next. *)
let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let analyze_nat () =
  let entry = Nf.Registry.find "nat" in
  let config =
    Bolt.Pipeline.Config.(
      default |> with_contracts entry.Nf.Registry.contracts)
  in
  Bolt.Pipeline.analyze ~config entry.Nf.Registry.program

(* ---- Span nesting across pool workers ----------------------------------- *)

let test_spans_nest_across_pool () =
  with_obs (fun () ->
      Obs.Span.with_ ~cat:"test" "phase" (fun () ->
          ignore
            (Exec.Pool.map ~jobs:4
               (fun i -> Obs.Span.with_ ~cat:"test" "task" (fun () -> i * i))
               (List.init 16 Fun.id)));
      let spans = Obs.Span.dump () in
      let by_id = Hashtbl.create 64 in
      List.iter (fun (s : Obs.Span.t) -> Hashtbl.add by_id s.id s) spans;
      let phase =
        List.find (fun (s : Obs.Span.t) -> s.Obs.Span.name = "phase") spans
      in
      check_int "phase is a root" 0 phase.Obs.Span.parent;
      let tasks =
        List.filter (fun (s : Obs.Span.t) -> s.Obs.Span.name = "task") spans
      in
      check_int "every task recorded" 16 (List.length tasks);
      (* each task's ancestry must reach the phase span, whichever domain
         it ran on *)
      let rec reaches_phase id =
        id = phase.Obs.Span.id
        ||
        match Hashtbl.find_opt by_id id with
        | Some (s : Obs.Span.t) -> reaches_phase s.Obs.Span.parent
        | None -> false
      in
      List.iter
        (fun (t : Obs.Span.t) ->
          check_bool "task nests under phase" true
            (reaches_phase t.Obs.Span.parent))
        tasks;
      (* workers themselves sit directly under the phase *)
      List.iter
        (fun (s : Obs.Span.t) ->
          if s.Obs.Span.name = "pool.worker" then
            check_int "worker under phase" phase.Obs.Span.id s.Obs.Span.parent)
        spans)

(* ---- Derivation stays on one domain ----------------------------------- *)

let test_analyze_queues_no_pool_tasks () =
  with_obs (fun () ->
      Solver.Cache.reset ();
      let t = analyze_nat () in
      let counter name =
        Option.value ~default:0
          (List.assoc_opt name (Obs.Metrics.counters_dump ()))
      in
      check_bool "nat has paths" true (Bolt.Pipeline.path_count t > 0);
      check_bool "pipeline counters recorded" true
        (counter "solver.cache.misses" > 0);
      check_int "no pool task queued" 0 (counter "pool.tasks_queued");
      check_bool "no pool worker span" false
        (List.exists
           (fun (s : Obs.Span.t) -> s.Obs.Span.name = "pool.worker")
           (Obs.Span.dump ())))

(* ---- Trace export: valid JSON, stable schema ---------------------------- *)

let keys_of = function
  | Perf.Json.Obj fields -> List.sort compare (List.map fst fields)
  | _ -> Alcotest.fail "expected a JSON object"

let test_trace_schema () =
  with_obs (fun () ->
      Solver.Cache.reset ();
      ignore (analyze_nat ());
      let json =
        match Perf.Json.of_string (Obs.Trace_io.to_string ()) with
        | Ok j -> j
        | Error msg -> Alcotest.fail ("trace is not valid JSON: " ^ msg)
      in
      Alcotest.(check (list string))
        "top-level keys"
        [ "displayTimeUnit"; "otherData"; "traceEvents" ]
        (keys_of json);
      let events =
        match
          Perf.Json.(
            let* evs = member "traceEvents" json in
            to_list evs)
        with
        | Ok evs -> evs
        | Error msg -> Alcotest.fail msg
      in
      check_bool "trace has events" true (events <> []);
      let phases = Hashtbl.create 8 in
      List.iter
        (fun ev ->
          Alcotest.(check (list string))
            "event keys"
            [ "args"; "cat"; "dur"; "name"; "ph"; "pid"; "tid"; "ts" ]
            (keys_of ev);
          match
            Perf.Json.(
              let* ph = member "ph" ev in
              let* ph = to_str ph in
              let* name = member "name" ev in
              let* name = to_str name in
              let* ts = member "ts" ev in
              let* ts = to_int ts in
              let* dur = member "dur" ev in
              let* dur = to_int dur in
              Ok (ph, name, ts, dur))
          with
          | Error msg -> Alcotest.fail msg
          | Ok (ph, name, ts, dur) ->
              check_string "complete event" "X" ph;
              check_bool "non-negative times" true (ts >= 0 && dur >= 0);
              Hashtbl.replace phases name ())
        events;
      (* all four pipeline phases must appear *)
      List.iter
        (fun phase ->
          check_bool (phase ^ " span present") true (Hashtbl.mem phases phase))
        [ "analyze"; "explore"; "solve"; "replay"; "price" ];
      (* counters ride along under otherData *)
      match
        Perf.Json.(
          let* other = member "otherData" json in
          let* counters = member "counters" other in
          let* c = member "solver.cache.misses" counters in
          to_int c)
      with
      | Ok n -> check_bool "solver cache counted" true (n > 0)
      | Error msg -> Alcotest.fail msg)

(* ---- Null backend: no interference -------------------------------------- *)

let contract_string () =
  Solver.Cache.reset ();
  let entry = Nf.Registry.find "nat" in
  let t = analyze_nat () in
  Fmt.str "%a"
    Perf.Contract.pp
    (Bolt.Pipeline.contract t ~classes:entry.Nf.Registry.classes)

let test_null_backend_identical_output () =
  Obs.disable ();
  Obs.reset ();
  let off = contract_string () in
  let on =
    with_obs (fun () ->
        let s = contract_string () in
        check_bool "tracing recorded spans" true (Obs.Span.dump () <> []);
        s)
  in
  check_string "contract identical with obs on" off on;
  check_string "contract identical on a second run" off (contract_string ());
  check_bool "disabled runtime records nothing" true (Obs.Span.dump () = [])

let suite =
  [
    Alcotest.test_case "spans nest across pool workers" `Quick
      test_spans_nest_across_pool;
    Alcotest.test_case "analyze queues no pool tasks" `Quick
      test_analyze_queues_no_pool_tasks;
    Alcotest.test_case "trace schema" `Quick test_trace_schema;
    Alcotest.test_case "null backend leaves output identical" `Quick
      test_null_backend_identical_output;
  ]
