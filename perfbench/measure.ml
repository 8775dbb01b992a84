(* Sample buffers, quantiles, layer spans and the result line. *)

let now = Unix.gettimeofday

(* Growable float sample buffer: one slot per timed call. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.(i)
    done;
    !s

  (* Linear interpolation between closest ranks; [nan] when empty. *)
  let quantile t p =
    if t.n = 0 then nan
    else begin
      let a = Array.sub t.a 0 t.n in
      Array.sort Float.compare a;
      let pos = p *. float_of_int (t.n - 1) in
      let lo = int_of_float pos in
      let hi = min (t.n - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
    end

  let of_list xs =
    let s = create () in
    List.iter (add s) xs;
    s

  (* The shared host's CPU alternates between an uncontended speed and
     one about 2x slower, in phases of tens of milliseconds to seconds;
     there is no steal time, the core itself runs slower.  So samples are
     cut into runs of [w] consecutive ones, shorter than a phase, and the
     runs whose median is in the fastest [share] (a tenth by default) are
     pooled (the median, so that a run's rare slow samples, the tail being
     measured, do not decide its selection): statistics of the
     pool measure the code, not how long the neighbours kept the core busy
     during this run.  At least one run is kept; with fewer than [w]
     samples, all are. *)
  let fast_pool ?(share = 0.1) t ~w =
    let runs =
      if t.n < w then [ t ]
      else List.init (t.n / w) (fun i -> { a = Array.sub t.a (i * w) w; n = w })
    in
    let mid r = quantile r 0.5 in
    let cut = quantile (of_list (List.map mid runs)) share in
    let pool = create () in
    List.iter
      (fun r ->
        if mid r <= cut then
          for i = 0 to r.n - 1 do
            add pool r.a.(i)
          done)
      runs;
    pool
end

let median xs = Samples.quantile (Samples.of_list xs) 0.5

(* Time [f ()] in seconds. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* A benchmark-side span around one call into a library layer.  Spans
   record only while the Obs runtime is enabled (the traced run). *)
let span name f = Obs.Span.with_ ~cat:"perfbench" name f

(* Total microseconds and count of the completed spans called [name];
   with [within], only those nested at any depth under a span of that
   name (the library's own spans, told apart by the call they ran in). *)
let span_total ?within name =
  let spans = Obs.Span.dump () in
  let inside =
    match within with
    | None -> fun _ -> true
    | Some w ->
        let by_id = Hashtbl.create 4096 in
        List.iter (fun (s : Obs.Span.t) -> Hashtbl.replace by_id s.Obs.Span.id s) spans;
        let rec under id =
          match Hashtbl.find_opt by_id id with
          | None -> false
          | Some (s : Obs.Span.t) -> s.Obs.Span.name = w || under s.Obs.Span.parent
        in
        fun (s : Obs.Span.t) -> under s.Obs.Span.parent
  in
  List.fold_left
    (fun (us, n) (s : Obs.Span.t) ->
      if s.Obs.Span.name = name && inside s then (us + s.Obs.Span.dur_us, n + 1)
      else (us, n))
    (0, 0) spans

(* ---- Output ------------------------------------------------------------ *)

type json =
  | F of float
  | I of int
  | S of string
  | B of bool
  | O of (string * json) list
  | Raw of string  (** already-serialized JSON *)

let rec json_to_string = function
  | F x ->
      if Float.is_finite x then Printf.sprintf "%.17g" x
      else failwith "perfbench: non-finite metric value"
  | I n -> string_of_int n
  | S s -> Printf.sprintf "%S" s
  | B b -> string_of_bool b
  | Raw s -> s
  | O fields ->
      "{"
      ^ String.concat ", "
          (List.map
             (fun (k, v) -> Printf.sprintf "%S: %s" k (json_to_string v))
             fields)
      ^ "}"

(* Every metric a run prints, by name with its unit, in BENCHMARK.json's
   order: the end-to-end ones (--trace 0), then the per-layer ones
   (--trace 1). *)
let end_to_end_units =
  [
    ("pps", "1/s"); ("batch_us_p50", "us"); ("batch_us_p90", "us");
    ("contract_ms_p50", "ms"); ("contract_ms_p90", "ms"); ("pass_frac", "frac");
    ("setup_s", "s"); ("heap_peak_mb", "MB");
  ]

let per_layer_units =
  [
    ("effective_cores", "cores"); ("steer_ns_per_pkt", "ns");
    ("steer_alloc_words_per_pkt", "words"); ("skew_pct", "%"); ("wake_join_us", "us");
    ("pool_map_us", "us"); ("copy_ns_per_pkt", "ns"); ("exec_ns_per_pkt", "ns");
    ("exec_alloc_words_per_pkt", "words"); ("dslib_ns_per_pkt", "ns");
    ("new_flow_frac", "frac"); ("drop_frac", "frac"); ("pcv_traversals_mean", "count");
    ("pcv_expired_mean", "count"); ("pcv_collisions_mean", "count");
    ("contract_cycles_per_pkt", "cycles"); ("ns_per_contract_cycle", "ns/cycle");
    ("explore_ms", "ms"); ("paths", "count"); ("forks_pruned", "count");
    ("solve_ms", "ms"); ("solver_cache_hit_frac", "frac"); ("replay_ms", "ms");
    ("price_ms", "ms"); ("topo_ms", "ms"); ("routes", "count"); ("routes_pruned", "count");
    ("transit_us_per_pkt", "us"); ("check_us_per_pkt", "us"); ("specialized_nodes", "count");
    ("unattributed_frac", "frac"); ("trace_overhead_frac", "frac");
  ]

type metric = { name : string; value : float; unit_ : string }

(* Every metric of [table] with its value from [values]; one a workload
   does not measure prints as 0. *)
let complete table values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name table) then invalid_arg ("perfbench: unknown metric " ^ name))
    values;
  List.map
    (fun (name, unit_) ->
      { name; unit_; value = Option.value ~default:0. (List.assoc_opt name values) })
    table

(* Checks made by a run: every correctness check counts once. *)
type checks = { mutable attempted : int; mutable failed : int }

let checks () = { attempted = 0; failed = 0 }

let check c ~what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "perfbench: check failed: %s\n%!" what
  end

(* [attempted] checks, of which each of [failures] failed. *)
let tally c ~what ~attempted failures =
  c.attempted <- c.attempted + attempted;
  c.failed <- c.failed + List.length failures;
  List.iter (fun f -> Printf.eprintf "perfbench: check failed: %s: %s\n%!" what f) failures

let pass_frac c =
  float_of_int (c.attempted - c.failed) /. float_of_int (max 1 c.attempted)

(* Peak major heap so far, in MiB. *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Packets per second of timed batches of [batch_packets] each, [s]
   holding one time per batch in microseconds. *)
let pps ~batch_packets s =
  float_of_int (batch_packets * Samples.count s) /. (Samples.sum s /. 1e6)

(* Batch samples are classified in runs of this many consecutive ones
   (see [Samples.fast_pool]). *)
let batch_window = 100

(* The end-to-end metrics and the sample counts behind them, from a run's
   untraced batch times (us), its pooled derivation times (ms, see
   [Derive.fast_ms]) and its set-up times (s). *)
let end_to_end checks ~batch_packets ~batches ~contract_ms ~all_contract_ms ~setups =
  let fast = Samples.fast_pool batches ~w:batch_window in
  ( complete end_to_end_units
      [
        ("pps", pps ~batch_packets fast);
        ("batch_us_p50", Samples.quantile fast 0.5);
        ("batch_us_p90", Samples.quantile fast 0.9);
        ("contract_ms_p50", Samples.quantile contract_ms 0.5);
        ("contract_ms_p90", Samples.quantile contract_ms 0.9);
        ("pass_frac", pass_frac checks);
        ("setup_s", Samples.quantile (Samples.fast_pool setups ~w:1) 0.5);
        ("heap_peak_mb", heap_peak_mb ());
      ],
    [
      ("batch_packets", I batch_packets);
      ("batch_samples", I (Samples.count batches));
      ("batch_samples_fast", I (Samples.count fast));
      ("contract_samples", I (Samples.count all_contract_ms));
      ("contract_samples_fast", I (Samples.count contract_ms));
      ("setup_samples", I (Samples.count setups));
    ] )

(* The result is the last line of standard output. *)
let print_result c metrics =
  print_endline
    (json_to_string
       (O
          [
            ("correct", B (c.failed = 0));
            ("attempted", I c.attempted);
            ("failed", I c.failed);
            ( "metrics",
              O
                (List.map
                   (fun m -> (m.name, O [ ("value", F m.value); ("unit", S m.unit_) ]))
                   metrics) );
          ]))
