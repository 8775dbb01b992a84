type runner = {
  sp : Exec.Specialize.t;
  meter : Exec.Meter.t;
  env : Exec.Ds.env;  (** kept so shard state is inspectable / alive *)
}

type t = {
  plan : Plan.t;
  runners : runner array;
  mutable workers : Exec.Pool.Workers.t option;
      (** spawned on first parallel use, joined by {!stop} *)
}

type result = {
  index : int;
  shard : int;
  outcome : Exec.Interp.outcome;
  ic : int;
  ma : int;
  bytes : string;
}

let make_runner spec =
  let entry = Nf.Registry.of_spec spec in
  let meter = Exec.Meter.create (Hw.Model.null ()) in
  let sp, env = Nf.Registry.specialize entry ~meter in
  { sp; meter; env }

let create (plan : Plan.t) =
  { plan; runners = Array.map make_runner plan.Plan.specs; workers = None }

let plan t = t.plan

let workers t =
  match t.workers with
  | Some w -> w
  | None ->
      let w = Exec.Pool.Workers.create (t.plan.Plan.shards - 1) in
      t.workers <- Some w;
      w

let stop t =
  match t.workers with
  | None -> ()
  | Some w ->
      Exec.Pool.Workers.stop w;
      t.workers <- None

let with_engine plan f =
  let t = create plan in
  Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)

let bytes_of pkt = Bytes.to_string (Net.Packet.to_bytes pkt)

(* A steered copy of one stream entry, tagged with its stream position.
   Broadcast entries are expanded into one job per shard at partition
   time — the only moment packet copies are made — so no two domains
   ever touch the same buffer. *)
type job = {
  j_index : int;
  j_shard : int;
  j_report : bool;  (** false for the non-owner copies of a broadcast *)
  j_packet : Net.Packet.t;
  j_now : int;
  j_in_port : int;
}

let jobs_of_stream plan stream =
  let jobs = ref [] in
  List.iteri
    (fun i (e : Workload.Stream.entry) ->
      match Plan.steer plan ~in_port:e.in_port e.packet with
      | Dispatch.Shard s ->
          jobs :=
            {
              j_index = i;
              j_shard = s;
              j_report = true;
              j_packet = Net.Packet.copy e.packet;
              j_now = e.now;
              j_in_port = e.in_port;
            }
            :: !jobs
      | Dispatch.Broadcast ->
          for s = plan.Plan.shards - 1 downto 0 do
            jobs :=
              {
                j_index = i;
                j_shard = s;
                j_report = (s = 0);
                j_packet = Net.Packet.copy e.packet;
                j_now = e.now;
                j_in_port = e.in_port;
              }
              :: !jobs
          done)
    stream;
  List.rev !jobs

let run_job t out job =
  let r = t.runners.(job.j_shard) in
  let run =
    Exec.Specialize.run r.sp ~in_port:job.j_in_port ~now:job.j_now
      job.j_packet
  in
  if job.j_report then
    out.(job.j_index) <-
      Some
        {
          index = job.j_index;
          shard = job.j_shard;
          outcome = run.Exec.Interp.outcome;
          ic = run.ic;
          ma = run.ma;
          bytes = bytes_of job.j_packet;
        }

let replay ?(parallel = false) t stream =
  let n = List.length stream in
  let jobs = jobs_of_stream t.plan stream in
  let out = Array.make n None in
  if (not parallel) || t.plan.Plan.shards = 1 then
    (* arrival order; broadcast copies run shard 0 first, then 1..N-1 *)
    List.iter (run_job t out) jobs
  else begin
    (* per-shard slices keep arrival order, so each shard's state sees
       the same subsequence the serial walk feeds it *)
    let slices = Array.make t.plan.Plan.shards [] in
    List.iter (fun j -> slices.(j.j_shard) <- j :: slices.(j.j_shard)) jobs;
    let slices = Array.map List.rev slices in
    Exec.Pool.Workers.run (workers t) (fun s ->
        List.iter (run_job t out) slices.(s))
  end;
  Array.mapi
    (fun i -> function
      | Some r -> r
      | None -> invalid_arg (Printf.sprintf "Shard.replay: entry %d unrun" i))
    out

let step t ~in_port ~now pkt =
  match Plan.steer t.plan ~in_port pkt with
  | Dispatch.Shard s ->
      let copy = Net.Packet.copy pkt in
      let r = t.runners.(s) in
      (s, Exec.Specialize.run r.sp ~in_port ~now copy, copy)
  | Dispatch.Broadcast ->
      let owner = ref None in
      for s = 0 to t.plan.Plan.shards - 1 do
        let copy = Net.Packet.copy pkt in
        let run = Exec.Specialize.run t.runners.(s).sp ~in_port ~now copy in
        if s = 0 then owner := Some (run, copy)
      done;
      let run, copy = Option.get !owner in
      (0, run, copy)

let load_histogram (plan : Plan.t) stream =
  let h = Array.make plan.Plan.shards 0 in
  List.iter
    (fun (e : Workload.Stream.entry) ->
      match Plan.steer plan ~in_port:e.in_port e.packet with
      | Dispatch.Shard s -> h.(s) <- h.(s) + 1
      | Dispatch.Broadcast ->
          for s = 0 to plan.Plan.shards - 1 do
            h.(s) <- h.(s) + 1
          done)
    stream;
  h

let drain ?(parallel = false) t stream =
  let shards = t.plan.Plan.shards in
  (* copies, slice sizing and worker spawning happen before the clock
     starts: the timed region is steering + execution, the two terms the
     contract prices *)
  let entries =
    Array.of_list
      (List.map
         (fun (e : Workload.Stream.entry) ->
           (Net.Packet.copy e.packet, e.now, e.in_port))
         stream)
  in
  if shards = 1 then begin
    (* one shard bypasses the dispatcher entirely: no histogram, no
       slices *)
    let r = t.runners.(0) in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun (pkt, now, in_port) ->
        Exec.Meter.reset_observations r.meter;
        ignore (Exec.Specialize.exec r.sp ~in_port ~now pkt : int))
      entries;
    Unix.gettimeofday () -. t0
  end
  else begin
    let pool = if parallel then Some (workers t) else None in
    let hist = load_histogram t.plan stream in
    let slices =
      Array.init shards (fun s -> Array.make (max 1 hist.(s)) (-1))
    in
    let fill = Array.make shards 0 in
    let exec_slice s =
      let r = t.runners.(s) in
      let slice = slices.(s) and len = fill.(s) in
      for k = 0 to len - 1 do
        let pkt, now, in_port = entries.(slice.(k)) in
        Exec.Meter.reset_observations r.meter;
        ignore (Exec.Specialize.exec r.sp ~in_port ~now pkt : int)
      done
    in
    let t0 = Unix.gettimeofday () in
    (* steering pass: the serialized dispatch term *)
    Array.iteri
      (fun i (pkt, _now, in_port) ->
        match Plan.steer t.plan ~in_port pkt with
        | Dispatch.Shard s ->
            slices.(s).(fill.(s)) <- i;
            fill.(s) <- fill.(s) + 1
        | Dispatch.Broadcast ->
            for s = 0 to shards - 1 do
              slices.(s).(fill.(s)) <- i;
              fill.(s) <- fill.(s) + 1
            done)
      entries;
    (match pool with
    | Some w -> Exec.Pool.Workers.run w exec_slice
    | None ->
        for s = 0 to shards - 1 do
          exec_slice s
        done);
    Unix.gettimeofday () -. t0
  end

let pp_result ppf r =
  Fmt.pf ppf "#%d shard %d %a ic=%d ma=%d" r.index r.shard
    (fun ppf -> function
      | Exec.Interp.Sent p -> Fmt.pf ppf "sent(%d)" p
      | Dropped -> Fmt.string ppf "dropped"
      | Flooded -> Fmt.string ppf "flooded")
    r.outcome r.ic r.ma
