(* One way to run domains: [Workers], a fixed set of parked domains,
   and a deterministic ordered [map] on top of it.

   [map]'s items are claimed with an atomic counter and results land in
   a slot array indexed by item position, so the output order (and any
   exception raised) is independent of scheduling.  Workers must be
   isolated: [f] may share immutable data freely but must create its own
   mutable state (meters, hardware models, RNGs) per item. *)

let env_jobs () =
  match Sys.getenv_opt "BOLT_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ -> None)

let default_jobs () =
  match env_jobs () with
  | Some n -> n
  | None -> Domain.recommended_domain_count ()

type 'a slot = Empty | Value of 'a | Error of exn * Printexc.raw_backtrace

let c_queued = Obs.Metrics.counter "pool.tasks_queued"
let c_completed = Obs.Metrics.counter "pool.tasks_completed"
let g_jobs = Obs.Metrics.gauge "pool.max_jobs"
let g_workers = Obs.Metrics.gauge "pool.max_workers"

(* collect a slot array, surfacing the lowest-indexed failure as a
   serial run would *)
let harvest slots =
  Array.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt
      | Empty | Value _ -> ())
    slots;
  Array.to_list
    (Array.map (function Value v -> v | Empty | Error _ -> assert false)
       slots)

module Workers = struct
  (* One long-lived domain per worker index, parked on a condition
     variable between jobs.  This is the steady-state shape of a sharded
     dataplane: spawning is paid once at [create], so a timed drain sees
     only dispatch + execution, never domain start-up.  There is no
     clamp to the hardware thread count — a 4-shard plan on a 1-core
     host still runs 4 domains (timesharing), which is exactly what the
     scalability contract's [max(f, 1/cores)] bottleneck term models.
     [map] stands up a set per call and stops it before returning. *)

  type state = Idle | Job of (unit -> unit) | Stop

  type cell = {
    m : Mutex.t;
    cv : Condition.t;
    mutable state : state;
    mutable finished : bool;
    mutable failure : (exn * Printexc.raw_backtrace) option;
  }

  type t = {
    cells : cell array;
    doms : unit Domain.t array;
    mutable stopped : bool;
  }

  let rec serve c =
    Mutex.lock c.m;
    while c.state = Idle do
      Condition.wait c.cv c.m
    done;
    match c.state with
    | Idle -> assert false
    | Stop -> Mutex.unlock c.m
    | Job f ->
        c.state <- Idle;
        Mutex.unlock c.m;
        (try f ()
         with e -> c.failure <- Some (e, Printexc.get_raw_backtrace ()));
        Mutex.lock c.m;
        c.finished <- true;
        Condition.broadcast c.cv;
        Mutex.unlock c.m;
        serve c

  let create extra =
    let extra = max 0 extra in
    Obs.Metrics.set_max g_workers (extra + 1);
    let cells =
      Array.init extra (fun _ ->
          {
            m = Mutex.create ();
            cv = Condition.create ();
            state = Idle;
            finished = true;
            failure = None;
          })
    in
    let parent_span = Obs.Span.current () in
    let doms =
      Array.mapi
        (fun i c ->
          Domain.spawn (fun () ->
              Obs.Span.adopt parent_span @@ fun () ->
              Obs.Span.with_ ~cat:"pool" "pool.worker"
                ~args:(fun () -> [ ("worker", string_of_int (i + 1)) ])
              @@ fun () -> serve c))
        cells
    in
    { cells; doms; stopped = false }

  let size t = Array.length t.cells + 1

  let run t f =
    if t.stopped then invalid_arg "Pool.Workers.run: workers stopped";
    Array.iteri
      (fun i c ->
        Mutex.lock c.m;
        c.finished <- false;
        c.failure <- None;
        c.state <- Job (fun () -> f (i + 1));
        Condition.broadcast c.cv;
        Mutex.unlock c.m)
      t.cells;
    (* index 0 runs here, on the calling domain *)
    let own =
      match f 0 with
      | () -> None
      | exception e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Array.iter
      (fun c ->
        Mutex.lock c.m;
        while not c.finished do
          Condition.wait c.cv c.m
        done;
        Mutex.unlock c.m)
      t.cells;
    (* lowest-index failure wins, and the caller is index 0 *)
    (match own with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    Array.iter
      (fun c ->
        match c.failure with
        | Some (e, bt) ->
            c.failure <- None;
            Printexc.raise_with_backtrace e bt
        | None -> ())
      t.cells

  let stop t =
    if not t.stopped then begin
      t.stopped <- true;
      Array.iter
        (fun c ->
          Mutex.lock c.m;
          c.state <- Stop;
          Condition.broadcast c.cv;
          Mutex.unlock c.m)
        t.cells;
      Array.iter Domain.join t.doms
    end
end

let map ?jobs f items =
  let items = Array.of_list items in
  let n = Array.length items in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs n in
  Obs.Metrics.add c_queued n;
  Obs.Metrics.set_max g_jobs jobs;
  let slots = Array.make n Empty in
  let next = Atomic.make 0 in
  (* every worker index runs the same claim loop; a failing item is
     recorded in its slot and the loop moves on, so [harvest] can
     surface the lowest-indexed failure whichever domain hit it *)
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (slots.(i) <-
        (match f items.(i) with
        | v ->
            Obs.Metrics.incr c_completed;
            Value v
        | exception e -> Error (e, Printexc.get_raw_backtrace ())));
      claim ()
    end
  in
  let workers = Workers.create (jobs - 1) in
  Fun.protect
    ~finally:(fun () -> Workers.stop workers)
    (fun () -> Workers.run workers (fun _ -> claim ()));
  harvest slots
