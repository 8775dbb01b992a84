(* The Distiller's replay is the per-packet hot path of the repository:
   it drives the config-specialized program (Exec.Specialize — never the
   interpreter; on the default realistic model too, whose coupled memory
   pricing the specialized body charges exactly) and folds every packet
   straight into flat arrays.  No
   per-packet report list is retained and PCV aggregates are built once
   at replay time, so [pcv_values]/[pcv_sums]/[latencies] are O(packets)
   reads of precomputed columns instead of O(obs)×O(pcv) rescans. *)

type packet_report = {
  index : int;
  outcome : Exec.Interp.outcome;
  ic : int;
  ma : int;
  cycles : int;
  observations : (Perf.Pcv.t * int) list;
}

(* Growable int array for the flat observation stream (its total length
   is unknown until the replay finishes). *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 64 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

type t = {
  count : int;
  outcomes : Exec.Interp.outcome array;
  ics : int array;
  mas : int array;
  cys : int array;
  pcvs : Perf.Pcv.t array;  (** observed PCVs, in first-observation order *)
  pcv_max : int array array;  (** per-PCV column of per-packet maxima *)
  pcv_sum : int array array;  (** per-PCV column of per-packet sums *)
  obs_pcv : int array;  (** flat per-call stream: index into [pcvs] *)
  obs_val : int array;
  obs_off : int array;  (** packet i's calls are [obs_off.(i), obs_off.(i+1)) *)
}

let run ?hw ~dss program stream =
  let model = match hw with Some m -> m | None -> Hw.Model.realistic () in
  let meter = Exec.Meter.create model in
  let engine =
    Exec.Specialize.bind program ~meter ~mode:(Exec.Interp.Production dss)
  in
  let dma_regions =
    [ (Exec.Interp.packet_base, 2048); (Exec.Interp.rx_ring_base, 256) ]
  in
  let n = Workload.Stream.length stream in
  let outcomes = Array.make n Exec.Interp.Dropped in
  let ics = Array.make n 0 in
  let mas = Array.make n 0 in
  let cys = Array.make n 0 in
  let obs_pcv = Vec.create () in
  let obs_val = Vec.create () in
  let obs_off = Array.make (n + 1) 0 in
  (* columns in reverse insertion order; the universe is tiny *)
  let cols : (Perf.Pcv.t * int * int array * int array) list ref = ref [] in
  let ncols = ref 0 in
  let col_of pcv =
    match List.find_opt (fun (p, _, _, _) -> Perf.Pcv.equal p pcv) !cols with
    | Some col -> col
    | None ->
        let col = (pcv, !ncols, Array.make n 0, Array.make n 0) in
        cols := col :: !cols;
        incr ncols;
        col
  in
  List.iteri
    (fun i { Workload.Stream.packet; now; in_port } ->
      Exec.Meter.reset_observations meter;
      model.Hw.Model.boundary dma_regions;
      let run = Exec.Specialize.run engine ~in_port ~now packet in
      outcomes.(i) <- run.Exec.Interp.outcome;
      ics.(i) <- run.Exec.Interp.ic;
      mas.(i) <- run.Exec.Interp.ma;
      cys.(i) <- run.Exec.Interp.cycles;
      List.iter
        (fun (pcv, v) ->
          let _, idx, maxc, sumc = col_of pcv in
          Vec.push obs_pcv idx;
          Vec.push obs_val v;
          maxc.(i) <- max maxc.(i) v;
          sumc.(i) <- sumc.(i) + v)
        (Exec.Meter.observations meter);
      obs_off.(i + 1) <- obs_pcv.Vec.len)
    stream;
  let cols = List.rev !cols in
  {
    count = n;
    outcomes;
    ics;
    mas;
    cys;
    pcvs = Array.of_list (List.map (fun (p, _, _, _) -> p) cols);
    pcv_max = Array.of_list (List.map (fun (_, _, m, _) -> m) cols);
    pcv_sum = Array.of_list (List.map (fun (_, _, _, s) -> s) cols);
    obs_pcv = Vec.to_array obs_pcv;
    obs_val = Vec.to_array obs_val;
    obs_off;
  }

let run_pcap ?hw ~dss program ~path ?(in_port = 0) () =
  let records = Net.Pcap.read_file path in
  run ?hw ~dss program (Workload.Stream.of_pcap ~in_port records)

let count t = t.count

let find_col t pcv =
  let rec scan j =
    if j >= Array.length t.pcvs then None
    else if Perf.Pcv.equal t.pcvs.(j) pcv then Some j
    else scan (j + 1)
  in
  scan 0

let pcv_values t pcv =
  match find_col t pcv with
  | Some j -> Array.to_list t.pcv_max.(j)
  | None -> List.init t.count (fun _ -> 0)

let pcv_sums t pcv =
  match find_col t pcv with
  | Some j -> Array.to_list t.pcv_sum.(j)
  | None -> List.init t.count (fun _ -> 0)

let latencies t = Array.to_list t.cys
let ic t i = t.ics.(i)
let ma t i = t.mas.(i)
let cycles t i = t.cys.(i)

let observations t i =
  let lo = t.obs_off.(i) and hi = t.obs_off.(i + 1) in
  List.init (hi - lo) (fun k ->
      (t.pcvs.(t.obs_pcv.(lo + k)), t.obs_val.(lo + k)))

let report t index =
  {
    index;
    outcome = t.outcomes.(index);
    ic = t.ics.(index);
    ma = t.mas.(index);
    cycles = t.cys.(index);
    observations = observations t index;
  }

let iter t f =
  for i = 0 to t.count - 1 do
    f (report t i)
  done

let fold t f acc =
  let acc = ref acc in
  for i = 0 to t.count - 1 do
    acc := f !acc (report t i)
  done;
  !acc

let max_over arr = Array.fold_left max 0 arr
let max_ic t = max_over t.ics
let max_ma t = max_over t.mas
let max_cycles t = max_over t.cys
