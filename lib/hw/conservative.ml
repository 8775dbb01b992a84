(* The path's cold L1D has the geometry and LRU rule of [Cache.l1d] (32 KiB,
   8-way), but each set's ways are allocated on its first access.  A model
   is built per analysed path and touches a handful of sets, so it lives
   and dies in the minor heap; a flat [Cache.t] would put one 512-word
   block in the major heap for every path. *)
let assoc = 8
let set_count = 32 * 1024 / Cost.line_size / assoc

type t = {
  sets : int array array;
      (** set [s]'s line tags, MRU first; [[||]] until first touched *)
  fill : int array;  (** number of valid ways per set *)
  mutable cycles : int;
  mutable instrs : int;
  mutable mems : int;
}

let create () =
  {
    sets = Array.make set_count [||];
    fill = Array.make set_count 0;
    cycles = 0;
    instrs = 0;
    mems = 0;
  }

let instr t kind n =
  t.instrs <- t.instrs + n;
  t.cycles <- t.cycles + (n * Cost.worst_case_cycles kind)

(* Position of [line] among the first [fill] ways, or -1. *)
let rec find_way (ways : int array) (i : int) (fill : int) (line : int) =
  if i >= fill then -1
  else if ways.(i) = line then i
  else find_way ways (i + 1) fill line

(* Touch [addr]'s line, true on a hit.  The line becomes MRU; a miss on a
   full set evicts the LRU way.  A negative line indexes a negative set,
   which the bounds check rejects, as in [Cache]. *)
let access t addr =
  let line = Cache.line_of_addr addr in
  let s = if line >= 0 then line land (set_count - 1) else line mod set_count in
  let fill = t.fill.(s) in
  if Array.length t.sets.(s) = 0 then t.sets.(s) <- Array.make assoc (-1);
  let ways = t.sets.(s) in
  let i = find_way ways 0 fill line in
  let last = if i >= 0 then i else if fill < assoc then fill else fill - 1 in
  for j = last downto 1 do
    ways.(j) <- ways.(j - 1)
  done;
  ways.(0) <- line;
  if i < 0 && fill < assoc then t.fill.(s) <- fill + 1;
  i >= 0

let mem t ~addr ~write:_ ~dependent:_ =
  t.mems <- t.mems + 1;
  t.cycles <-
    t.cycles + (if access t addr then Cost.l1_hit_cycles else Cost.dram_cycles)

let cycles t = t.cycles
let instr_count t = t.instrs
let mem_count t = t.mems
let mem_cost_upper = Cost.dram_cycles
let mem_cost_l1 = Cost.l1_hit_cycles
