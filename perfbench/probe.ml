(* Host and worker-pool probes.  Each keeps the process at two domains or
   fewer: the dataplane engines run on one shard, with no worker of their
   own. *)

(* A fixed integer loop the compiler cannot fold away. *)
let spin n =
  let x = ref 1 in
  for i = 1 to n do
    x := (!x * 1_103_515_245) + i land 0xffff
  done;
  Sys.opaque_identity !x

(* Measured parallelism: the same loop on one domain, then on two at
   once.  2 × t1 / t2 is ~2 on a host with two real cores and ~1 on a
   "2-vCPU" host that delivers one core's worth of CPU. *)
let effective_cores () =
  let n = 20_000_000 in
  ignore (spin (n / 10));
  let once () =
    let (), t1 = Measure.timed (fun () -> ignore (spin n)) in
    let (), t2 =
      Measure.timed (fun () ->
          let d = Domain.spawn (fun () -> spin n) in
          ignore (spin n);
          ignore (Domain.join d))
    in
    2. *. t1 /. t2
  in
  Measure.median (List.init 3 (fun _ -> once ()))

(* Median wall time, in microseconds, of a no-op job on a two-domain
   [Exec.Pool.Workers] pool (the caller and one parked worker): the
   wake/join cost every parallel drain of a 2-shard engine pays. *)
let wake_join_us ~calls =
  let w = Exec.Pool.Workers.create 1 in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.Workers.stop w)
    (fun () ->
      let s = Measure.Samples.create () in
      for _ = 1 to calls do
        let (), dt =
          Measure.timed (fun () ->
              Measure.span "Exec.Pool.Workers.run" (fun () ->
                  Exec.Pool.Workers.run w ignore))
        in
        Measure.Samples.add s (dt *. 1e6)
      done;
      Measure.Samples.quantile s 0.5)

(* Median wall time, in microseconds, of [Exec.Pool.map] over trivial
   tasks at the default width: it spawns and joins fresh domains on
   every call, as each contract derivation does. *)
let pool_map_us ~calls =
  let items = List.init (2 * Exec.Pool.default_jobs ()) Fun.id in
  let s = Measure.Samples.create () in
  for _ = 1 to calls do
    let _, dt =
      Measure.timed (fun () ->
          Measure.span "Exec.Pool.map" (fun () -> Exec.Pool.map succ items))
    in
    Measure.Samples.add s (dt *. 1e6)
  done;
  Measure.Samples.quantile s 0.5
