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
  mutable regions : (int * int) list;
      (** the last boundary's DMA regions; it left none of their lines in
          L1 or L2 *)
  mutable touched : int array;
      (** the region lines [mem] has filled into L1 since, [ntouched] of
          them, without repeats *)
  mutable ntouched : int;
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
    regions = [];
    touched = [||];
    ntouched = 0;
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

(* The first and last of the lines [Cache.iter_range] visits for a
   region, which never decrease along it, nor skip one. *)
let first_line base = Cache.line_of_addr base

let last_line base size =
  let lines = (size + Cost.line_size - 1) / Cost.line_size in
  if lines > 0 then Cache.line_of_addr (base + ((lines - 1) * Cost.line_size))
  else first_line base - 1

let rec in_regions (line : int) = function
  | [] -> false
  | (base, size) :: rest ->
      (line >= first_line base && line <= last_line base size)
      || in_regions line rest

let rec region_lines = function
  | [] -> 0
  | (base, size) :: rest ->
      max 0 (last_line base size - first_line base + 1) + region_lines rest

let rec recorded t (line : int) i =
  i < t.ntouched && (t.touched.(i) = line || recorded t line (i + 1))

(* Record a region line [mem] filled into L1.  A region line enters L1 or
   L2 only through [mem] of that line, and every such [mem] misses L1
   first (the L1 fill, then the L2 fill or the prefetch hit's
   [Cache.insert_line]).  So once a boundary has cleared the regions, the
   recorded lines are the only region lines L1 and L2 can hold. *)
let touch t line =
  if in_regions line t.regions && not (recorded t line 0) then begin
    t.touched.(t.ntouched) <- line;
    t.ntouched <- t.ntouched + 1
  end

let rec same_regions a b =
  match (a, b) with
  | [], [] -> true
  | ((ba : int), (sa : int)) :: ra, (bb, sb) :: rb ->
      ba = bb && sa = sb && same_regions ra rb
  | _ -> false

(* Recursions, not [List.iter]: a closure over [t] would allocate on
   every boundary. *)
let rec park_in_l3 t = function
  | [] -> ()
  | (base, size) :: rest ->
      Cache.insert_range t.l3 ~base ~size;
      park_in_l3 t rest

let rec evict_and_park t = function
  | [] -> ()
  | (base, size) :: rest ->
      Cache.remove_range t.l1 ~base ~size;
      Cache.remove_range t.l2 ~base ~size;
      Cache.insert_range t.l3 ~base ~size;
      evict_and_park t rest

(* DMA delivered a fresh packet: its buffer (and the descriptor ring
   entry) leave the core caches; DDIO parks the lines in L3.  Removal
   commutes, so when the regions repeat, removing just the touched lines
   leaves L1 and L2 as removing every region line would; L3 still sees
   every insert, in the same order. *)
let packet_boundary t ~regions =
  if same_regions regions t.regions then begin
    for i = 0 to t.ntouched - 1 do
      Cache.remove_line t.l1 t.touched.(i);
      Cache.remove_line t.l2 t.touched.(i)
    done;
    t.ntouched <- 0;
    park_in_l3 t regions
  end
  else begin
    evict_and_park t regions;
    (* a region with a negative line raises before it is tracked *)
    let lines = region_lines regions in
    if Array.length t.touched < lines then t.touched <- Array.make lines 0;
    t.regions <- regions;
    t.ntouched <- 0
  end

(* Misses closer together than this many instructions may overlap. *)
let burst_window = 48

let train_prefetcher t line =
  if line = t.last_miss_line + 1 then begin
    if Lines.length t.predicted > 4096 then Lines.reset t.predicted;
    Lines.replace t.predicted (line + 1) ();
    Lines.replace t.predicted (line + 2) ()
  end

let tlb_miss_penalty = 7

let mem_l1_miss t line ~dependent =
  touch t line;
  let cost =
    if Lines.mem t.predicted line then begin
      (* The prefetch is in flight.  A dependent access still waits for
         part of the fill; an independent one overlaps it entirely. *)
      Lines.remove t.predicted line;
      Lines.replace t.predicted (line + 1) ();
      Cache.insert_line t.l2 line;
      if dependent then Cost.prefetched_hit_cycles else Cost.l1_hit_cycles
    end
    else if Cache.access_line t.l2 line then Cost.l2_hit_cycles
    else if Cache.access_line t.l3 line then Cost.l3_hit_cycles
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
  (* no L1 fill here: [Cache.access_line t.l1] already filled the line *)
  train_prefetcher t line;
  t.last_miss_line <- (if cost >= Cost.l2_hit_cycles then line
                       else t.last_miss_line);
  t.mem_cycles <- t.mem_cycles + cost

let mem t ~addr ~write:_ ~dependent =
  t.mems <- t.mems + 1;
  (* address translation first: a DTLB miss costs a (mostly cached)
     page walk; the DTLB's "lines" are 4 KiB pages *)
  if not (Cache.access_line t.dtlb (addr / 4096)) then
    t.mem_cycles <- t.mem_cycles + tlb_miss_penalty;
  let line =
    if addr >= 0 then addr lsr Cache.line_shift else Cache.line_of_addr addr
  in
  if Cache.access_line t.l1 line then begin
    (* an L1 hit never moves [last_miss_line]; the test spares the call *)
    if line = t.last_miss_line + 1 then train_prefetcher t line;
    t.mem_cycles <- t.mem_cycles + Cost.l1_hit_cycles
  end
  else mem_l1_miss t line ~dependent

let probe t addr =
  (Cache.probe t.l1 addr, Cache.probe t.l2 addr, Cache.probe t.l3 addr)

let cycles t = (t.instrs / Cost.ipc) + t.mem_cycles
let instr_count t = t.instrs
let mem_count t = t.mems
