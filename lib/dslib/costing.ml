let charge_alu meter n = Exec.Meter.instr meter Hw.Cost.Alu n
let charge_branch meter n = Exec.Meter.instr meter Hw.Cost.Branch n
let charge_move meter n = Exec.Meter.instr meter Hw.Cost.Move n
let charge_mul meter n = Exec.Meter.instr meter Hw.Cost.Mul n

let charge_load meter ?(dependent = false) ~addr () =
  Exec.Meter.instr meter Hw.Cost.Load 1;
  Exec.Meter.mem meter ~dependent addr

let charge_store meter ~addr () =
  Exec.Meter.instr meter Hw.Cost.Store 1;
  Exec.Meter.mem meter ~write:true addr

let charge_hash meter ~key_len =
  charge_mul meter key_len;
  charge_alu meter ((2 * key_len) + 1)

(* Sink-flavoured twins of the charge_* helpers above, for the
   specialized fast paths: instruction charges bump the sink's deferred
   per-kind counters (flushed by the compiled runner at packet exits)
   instead of going through the meter's per-event dispatch.  Memory
   charges still fire at the access point — addresses matter to some
   models.  Only sound on an untraced meter (the specializer guarantees
   that); on a coupled model the sink's [s_mem] lands the deferred
   counters before each access, so a twin must charge in its metered
   method's order. *)
module Sink = struct
  let i_alu = Hw.Cost.kind_index Hw.Cost.Alu
  let i_mul = Hw.Cost.kind_index Hw.Cost.Mul
  let i_move = Hw.Cost.kind_index Hw.Cost.Move
  let i_branch = Hw.Cost.kind_index Hw.Cost.Branch
  let i_load = Hw.Cost.kind_index Hw.Cost.Load
  let i_store = Hw.Cost.kind_index Hw.Cost.Store

  let bump (s : Exec.Ds.sink) i n =
    let c = s.Exec.Ds.s_counts in
    Array.unsafe_set c i (Array.unsafe_get c i + n)

  let alu s n = bump s i_alu n
  let branch s n = bump s i_branch n
  let move s n = bump s i_move n
  let mul s n = bump s i_mul n

  (* On an address-insensitive model the access just joins the deferred
     batch (one counter bump); otherwise it fires at its real address. *)
  let i_mem = Hw.Cost.nkinds

  let load (s : Exec.Ds.sink) ?(dependent = false) ~addr () =
    bump s i_load 1;
    if s.Exec.Ds.s_mem_batched then bump s i_mem 1
    else s.Exec.Ds.s_mem ~addr ~write:false ~dependent

  let store (s : Exec.Ds.sink) ~addr () =
    bump s i_store 1;
    if s.Exec.Ds.s_mem_batched then bump s i_mem 1
    else s.Exec.Ds.s_mem ~addr ~write:true ~dependent:false

  let hash s ~key_len =
    mul s key_len;
    alu s ((2 * key_len) + 1)

  let batched (s : Exec.Ds.sink) = s.Exec.Ds.s_mem_batched

  let loads_b s n =
    bump s i_load n;
    bump s i_mem n

  let stores_b s n =
    bump s i_store n;
    bump s i_mem n

  let observe (s : Exec.Ds.sink) pcv v =
    Exec.Meter.observe s.Exec.Ds.s_meter pcv v
end

let ic_hash ~key_len = (3 * key_len) + 1
let ma_hash ~key_len:_ = 0

let cycles_instr_factor = 6

let cycles_upper ~ic ~ma =
  Perf.Perf_expr.add
    (Perf.Perf_expr.scale cycles_instr_factor ic)
    (Perf.Perf_expr.scale Hw.Cost.dram_cycles ma)
