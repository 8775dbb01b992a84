(* Line numbers hash to themselves: no generic [caml_hash] per access. *)
module Lines = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (line : int) = line
end)

type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  dtlb : Cache.t;  (** 64-entry, 4 KiB pages, modelled as a tiny cache *)
  predicted : unit Lines.t;  (** lines the prefetcher has in flight *)
  mutable last_miss_line : int;
  mutable last_miss_instr : int;  (** instr count at the last DRAM miss *)
  mutable overlap : int;  (** current memory-level parallelism degree *)
  mutable instrs : int;
  mutable mems : int;
  mutable mem_cycles : int;
  mutable branches : int;
}

let create () =
  {
    l1 = Cache.l1d ();
    l2 = Cache.l2 ();
    l3 = Cache.l3 ();
    (* 64 page-table entries of one "line" each: reuse the cache machinery
       by mapping a 4 KiB page to a 64-byte pseudo-line *)
    dtlb = Cache.create ~size_bytes:(64 * 64) ~assoc:4;
    predicted = Lines.create 256;
    last_miss_line = min_int;
    last_miss_instr = min_int;
    overlap = 1;
    instrs = 0;
    mems = 0;
    mem_cycles = 0;
    branches = 0;
  }

(* One in [mispredict_rate] branches misses in the predictor. *)
let mispredict_rate = 32
let mispredict_penalty = 15

let branches t n =
  t.branches <- t.branches + n;
  let mispredicts =
    (t.branches / mispredict_rate) - ((t.branches - n) / mispredict_rate)
  in
  t.mem_cycles <- t.mem_cycles + (mispredicts * mispredict_penalty)

let instr t kind n =
  t.instrs <- t.instrs + n;
  if kind = Cost.Branch then branches t n

(* Mispredicts depend only on the running branch total, so one charge of
   the summed counts prices exactly like one [instr] call per kind. *)
let i_branch = Cost.kind_index Cost.Branch

let instr_pack t (counts : int array) =
  let total = ref 0 in
  for i = 0 to Cost.nkinds - 1 do
    total := !total + Array.unsafe_get counts i
  done;
  t.instrs <- t.instrs + !total;
  let b = Array.unsafe_get counts i_branch in
  if b > 0 then branches t b

(* DMA delivered a fresh packet: its buffer (and the descriptor ring
   entry) leave the core caches; DDIO parks the lines in L3. *)
let rec packet_boundary t ~regions =
  match regions with
  | [] -> ()
  | (base, size) :: rest ->
      Cache.remove_range t.l1 ~base ~size;
      Cache.remove_range t.l2 ~base ~size;
      Cache.insert_range t.l3 ~base ~size;
      packet_boundary t ~regions:rest

(* Misses closer together than this many instructions may overlap. *)
let burst_window = 48

let train_prefetcher t line =
  if line = t.last_miss_line + 1 then begin
    if Lines.length t.predicted > 4096 then Lines.reset t.predicted;
    Lines.replace t.predicted (line + 1) ();
    Lines.replace t.predicted (line + 2) ()
  end

let tlb_miss_penalty = 7

let mem t ~addr ~write:_ ~dependent =
  t.mems <- t.mems + 1;
  (* address translation first: a DTLB miss costs a (mostly cached)
     page walk *)
  let page_pseudo_addr = addr / 4096 * Cost.line_size in
  if not (Cache.access t.dtlb page_pseudo_addr) then
    t.mem_cycles <- t.mem_cycles + tlb_miss_penalty;
  let line = Cache.line_of_addr addr in
  let cost =
    if Cache.access t.l1 addr then Cost.l1_hit_cycles
    else if Lines.mem t.predicted line then begin
      (* The prefetch is in flight.  A dependent access still waits for
         part of the fill; an independent one overlaps it entirely. *)
      Lines.remove t.predicted line;
      Lines.replace t.predicted (line + 1) ();
      Cache.insert t.l2 addr;
      if dependent then Cost.prefetched_hit_cycles else Cost.l1_hit_cycles
    end
    else if Cache.access t.l2 addr then Cost.l2_hit_cycles
    else if Cache.access t.l3 addr then Cost.l3_hit_cycles
    else begin
      (* DRAM.  Independent misses inside a burst overlap up to mlp_max. *)
      let in_burst = t.instrs - t.last_miss_instr < burst_window in
      let overlap =
        if dependent || not in_burst then 1
        else min Cost.mlp_max (t.overlap + 1)
      in
      t.overlap <- overlap;
      t.last_miss_instr <- t.instrs;
      Cost.dram_cycles / overlap
    end
  in
  (* no L1 fill here: [Cache.access t.l1] already filled the line *)
  train_prefetcher t line;
  t.last_miss_line <- (if cost >= Cost.l2_hit_cycles then line
                       else t.last_miss_line);
  t.mem_cycles <- t.mem_cycles + cost

let cycles t = (t.instrs / Cost.ipc) + t.mem_cycles
let instr_count t = t.instrs
let mem_count t = t.mems
