(* Config-specialized, allocation-free compiled execution.

   [bind] freezes a compiled program against one stream's concrete
   configuration — its meter, its mode, its linked data-structure
   instances — and recompiles the IR into closures with every remaining
   source of per-packet overhead hoisted to bind time:

   - Stateful calls skip the generic [Ds] dispatch entirely.  Each call
     site resolves its instance and method ONCE, to the structure's
     specialized fast path ({!Ds.fast_path}), and reuses a preallocated
     argv.  The fast path reads keys in place and charges through a
     {!Ds.sink} that shares this runtime's deferred counters.
   - Each block compiles to one fused closure chain of actions and
     guards.  Static instruction charges never touch a counter on the
     way: they accumulate at compile time along each path, and every
     exit — a [Return], whether it ends the fall-through path or a guard
     arm — applies its whole path's pack (RX framing + path + TX
     framing) straight to the model in one step.
   - When the hardware model prices memory accesses independently of
     their address ({!Hw.Model.t.mem_bulk}), memory charges batch the
     same way: statically countable accesses join the packs,
     dynamically counted ones (inside data-structure fast paths) bump
     one extra deferred counter, and the packet's accesses retire as a
     bulk charge at its exit.  Address-sensitive models (L1 tracking,
     burst windows) still see every access at its real address, in
     program order.
   - When the model's memory pricing reads the instruction count
     ({!Hw.Model.t.coupled_mem}, the realistic simulator's burst
     window), [build] compiles in coupled mode: the pack is cut at
     every access, so what the interpreter charged before the access
     lands first, in one {!Hw.Model.t.instr_pack}.  Packs accumulate in
     [Ir.Eval]'s order for this — an operator after its operands, [Ret]
     and the result move after the call, a loop test's charges after
     the test, a rejoining split's prefix before its arms — and the
     sink retires the fast paths' deferred counters before each of
     their accesses.  The choice is made once, at bind time; the other
     models' bodies are unchanged.
   - Expressions compile to shape-specialized closures: variable reads
     fuse into their consumers (slot indices are known at bind time),
     comparisons compile to direct boolean tests that never materialize
     a 0/1 int, each operator gets its own closure instead of a generic
     [apply_binop] dispatch, and constant operands fold away — constant
     conditions prune their dead arm at bind time.  Control transfers
     return outcome codes instead of raising, so the per-packet
     [Concrete.Returned] exception allocation disappears.

   The specialized body is charge-equivalent, not charge-identical: a
   packet that gets [Stuck] has not reached an exit, so its path's
   static pack never lands, and it can differ from the interpreter by
   that prefix (completed packets — and therefore everything a caller
   can observe across packets — are exact: same outcomes, IC, MA,
   cycles, observations; see DESIGN §12; on a coupled model the missing
   prefix can also shift the cycles of later packets).  Packing cannot
   reproduce a per-event stream, so [bind] falls back to
   {!Compiled.runner} whenever the meter traces events, the mode is
   Analysis, or any call site lacks a fast path.  One runner API, two
   dispositions — callers never need to know which they got. *)

open Ir

(* Raised at bind time when some call site cannot be specialized; the
   binder falls back to the generic compiled runner. *)
exception Not_specializable

let nkinds = Hw.Cost.nkinds
let i_alu = Hw.Cost.kind_index Hw.Cost.Alu
let i_move = Hw.Cost.kind_index Hw.Cost.Move
let i_load = Hw.Cost.kind_index Hw.Cost.Load
let i_store = Hw.Cost.kind_index Hw.Cost.Store
let i_branch = Hw.Cost.kind_index Hw.Cost.Branch
let i_call = Hw.Cost.kind_index Hw.Cost.Call
let i_ret = Hw.Cost.kind_index Hw.Cost.Ret

(* One deferred counter beyond the instruction kinds: batched memory
   accesses, drained through the model's [mem_bulk].  Only ever bumped
   when the model is address-insensitive. *)
let i_mem = nkinds
let n_counts = nkinds + 1

(* Outcome codes.  [k_next] is the fall-through sentinel a rejoining
   branch arm or loop body returns; the codes are disjoint from it and
   from each other.  Forward's port travels through [srt.out_port] so
   the code stays a bare int. *)
let k_next = min_int
let code_sent = 1
let code_dropped = 2
let code_flooded = 3

(* Per-stream runtime: allocated once at [bind], reused every packet. *)
type srt = {
  meter : Meter.t;
  mutable packet : Net.Packet.t;
  slots : int array;
  counts : int array;
      (** deferred charges of the data-structure fast paths: [nkinds]
          instr kinds plus batched mems *)
  minstr : Hw.Cost.kind -> int -> unit;
  mpack : int array -> unit;  (** one charge of a per-kind pack (coupled) *)
  mmem : addr:int -> write:bool -> dependent:bool -> unit;
  mbulk : int -> unit;  (** retires batched mems; unused unbatched *)
  mutable out_port : int;  (** valid after the body returns [code_sent] *)
}

(* Retire the deferred counters together with an exit's static pack, in
   one pass: one model charge per kind either of them touched. *)
let settle (pack : int array) rt =
  let c = rt.counts in
  for i = 0 to nkinds - 1 do
    let n = Array.unsafe_get pack i + Array.unsafe_get c i in
    if n > 0 then begin
      Array.unsafe_set c i 0;
      rt.minstr (Array.unsafe_get Hw.Cost.kind_of_index i) n
    end
  done;
  let m = Array.unsafe_get pack i_mem + Array.unsafe_get c i_mem in
  if m > 0 then begin
    Array.unsafe_set c i_mem 0;
    rt.mbulk m
  end

let no_charges = Array.make n_counts 0
let flush rt = settle no_charges rt

(* A static pack applied straight to the model: one charge per kind it
   touches, nothing deferred.  Snapshots [pack]. *)
let direct (pack : int array) : srt -> unit =
  let idx = List.filter (fun i -> pack.(i) > 0) (List.init nkinds Fun.id) in
  let ks = Array.of_list (List.map (Array.get Hw.Cost.kind_of_index) idx) in
  let ns = Array.of_list (List.map (Array.get pack) idx) in
  let nk = Array.length ks and m = pack.(i_mem) in
  fun rt ->
    for j = 0 to nk - 1 do
      rt.minstr (Array.unsafe_get ks j) (Array.unsafe_get ns j)
    done;
    if m > 0 then rt.mbulk m

(* The RX/TX framing of [Concrete.charge_rx]/[charge_tx]: instruction
   counts (and, batched, their accesses) join the path's pack; an
   unbatched model sees each access at its ring address. *)
let add pack i n = pack.(i) <- pack.(i) + n

let add_rx pack ~batch =
  add pack i_alu 22;
  add pack i_move 8;
  add pack i_load 4;
  add pack i_branch 2;
  if batch then add pack i_mem 4

let add_tx pack ~batch ~dropped =
  if dropped then begin
    add pack i_alu 4;
    add pack i_store 1;
    if batch then add pack i_mem 1
  end
  else begin
    add pack i_alu 14;
    add pack i_move 4;
    add pack i_store 3;
    add pack i_branch 1;
    if batch then add pack i_mem 3
  end

let rx_mems rt =
  for i = 0 to 3 do
    rt.mmem ~addr:(Concrete.rx_ring_base + (i * 8)) ~write:false
      ~dependent:false
  done

let tx_mems ~dropped rt =
  if dropped then
    rt.mmem ~addr:Concrete.rx_ring_base ~write:true ~dependent:false
  else
    for i = 0 to 2 do
      rt.mmem ~addr:(Concrete.rx_ring_base + 64 + (i * 8)) ~write:true
        ~dependent:false
    done

(* ---- coupled models ------------------------------------------------

   A model whose [mem] reads the running instruction count must see,
   before each access, exactly what the interpreter charged before it.
   Coupled mode therefore cuts the static pack at every access: what the
   path accumulated since the previous cut lands in one [instr_pack],
   then the access fires.  The deferred counters of a fast path land
   before each of its own accesses ([retire], from the sink) and together
   with the call's [Ret]/result move once it returns ([settle_packed]),
   so outside a call they are always empty and exits need no settle. *)

let retire mpack (c : int array) =
  mpack c;
  for i = 0 to nkinds - 1 do
    Array.unsafe_set c i 0
  done

let settle_packed (pack : int array) rt =
  let c = rt.counts in
  for i = 0 to nkinds - 1 do
    Array.unsafe_set c i (Array.unsafe_get c i + Array.unsafe_get pack i)
  done;
  retire rt.mpack c

let nothing (_ : srt) = ()

(* A static pack applied in one model charge.  Snapshots [pack]. *)
let packed (pack : int array) : srt -> unit =
  if Array.for_all (( = ) 0) pack then nothing
  else
    let p = Array.copy pack in
    fun rt -> rt.mpack p

(* Cut the running pack: its charges land where the returned action runs,
   and the path carries on from an empty pack. *)
let cut pack =
  let land_ = packed pack in
  Array.fill pack 0 n_counts 0;
  land_

let single i =
  let p = Array.make n_counts 0 in
  p.(i) <- 1;
  p

let store1 = single i_store
let load1 = single i_load
let branch1 = single i_branch

(* [Concrete.charge_rx] for a coupled model: each ring load lands before
   its access; the trailing branches open the body's pack. *)
let rx_head =
  let p = Array.make n_counts 0 in
  add p i_alu 22;
  add p i_move 8;
  add p i_load 1;
  p

let rx_coupled rt =
  rt.mpack rx_head;
  for i = 0 to 3 do
    if i > 0 then rt.mpack load1;
    rt.mmem ~addr:(Concrete.rx_ring_base + (i * 8)) ~write:false
      ~dependent:false
  done

(* [Concrete.charge_tx] for a coupled model, closing a path whose
   uncut charges are in [pack]. *)
let tx_coupled pack ~dropped : srt -> unit =
  if dropped then begin
    add pack i_alu 4;
    add pack i_store 1;
    let head = cut pack in
    fun rt ->
      head rt;
      rt.mmem ~addr:Concrete.rx_ring_base ~write:true ~dependent:false
  end
  else begin
    add pack i_alu 14;
    add pack i_move 4;
    add pack i_store 1;
    let head = cut pack in
    fun rt ->
      head rt;
      for i = 0 to 2 do
        if i > 0 then rt.mpack store1;
        rt.mmem ~addr:(Concrete.rx_ring_base + 64 + (i * 8)) ~write:true
          ~dependent:false
      done;
      rt.mpack branch1
  end

(* Loop skeletons, hoisted: a local [let rec] would capture its
   environment and allocate per packet. *)
type loop_cfg = {
  ccharge : srt -> unit;  (** per-test charges: condition + branch *)
  lcond : srt -> bool;
  lbody : srt -> int;
  lbound : int;
  lobs : Perf.Pcv.t option;  (** observe the iteration count at exit *)
}

let rec loop_iter cfg k rt =
  cfg.ccharge rt;
  let c = cfg.lcond rt in
  if k >= cfg.lbound then begin
    if c then Concrete.stuck "loop exceeded its static bound %d" cfg.lbound;
    (match cfg.lobs with
    | Some pcv -> Meter.observe rt.meter pcv k
    | None -> ());
    k_next
  end
  else if c then begin
    let r = cfg.lbody rt in
    if r == k_next then loop_iter cfg (k + 1) rt else r
  end
  else begin
    (match cfg.lobs with
    | Some pcv -> Meter.observe rt.meter pcv k
    | None -> ());
    k_next
  end

(* A compiled expression: value known at bind time (charges already
   hoisted into the enclosing pack), a bare slot read, or a closure
   producing the value (and, on address-sensitive models, firing its
   memory charges at the access point). *)
type sval = Kv of int | Sv of int | Dv of (srt -> int)

let forcev = function
  | Kv v -> fun (_ : srt) -> v
  | Sv s -> fun rt -> Array.unsafe_get rt.slots s
  | Dv f -> f

(* A compiled condition: decided at bind time, or a direct boolean
   test. *)
type sbool = Bk of bool | Bd of (srt -> bool)

(* Packet accesses check their bounds inline and raise the
   interpreter's [Stuck] message themselves — no handler per access. *)
let oob rt off bytes =
  raise (Concrete.Stuck (Net.Packet.bounds_message rt.packet off bytes))

let peek = function
  | Expr.W8 -> Net.Packet.peek_u8
  | Expr.W16 -> Net.Packet.peek_u16
  | Expr.W32 -> Net.Packet.peek_u32
  | Expr.W48 -> Net.Packet.peek_u48

let poke = function
  | Expr.W8 -> Net.Packet.poke_u8
  | Expr.W16 -> Net.Packet.poke_u16
  | Expr.W32 -> Net.Packet.poke_u32
  | Expr.W48 -> Net.Packet.poke_u48

(* Constant-offset packet loads on the batched path, one closure per
   width so the accessor call compiles direct; and their fusions into an
   assignment plus its continuation, the commonest header-parsing shape
   [x := pkt[k]; ...]. *)
let dv_load_b w off =
  match w with
  | Expr.W8 ->
      Dv
        (fun rt ->
          let v = Net.Packet.peek_u8 rt.packet off in
          if v < 0 then oob rt off 1 else v)
  | Expr.W16 ->
      Dv
        (fun rt ->
          let v = Net.Packet.peek_u16 rt.packet off in
          if v < 0 then oob rt off 2 else v)
  | Expr.W32 ->
      Dv
        (fun rt ->
          let v = Net.Packet.peek_u32 rt.packet off in
          if v < 0 then oob rt off 4 else v)
  | Expr.W48 ->
      Dv
        (fun rt ->
          let v = Net.Packet.peek_u48 rt.packet off in
          if v < 0 then oob rt off 6 else v)

let load_assign_b w off s (k : srt -> int) : srt -> int =
  match w with
  | Expr.W8 ->
      fun rt ->
        let v = Net.Packet.peek_u8 rt.packet off in
        if v < 0 then oob rt off 1
        else begin
          Array.unsafe_set rt.slots s v;
          k rt
        end
  | Expr.W16 ->
      fun rt ->
        let v = Net.Packet.peek_u16 rt.packet off in
        if v < 0 then oob rt off 2
        else begin
          Array.unsafe_set rt.slots s v;
          k rt
        end
  | Expr.W32 ->
      fun rt ->
        let v = Net.Packet.peek_u32 rt.packet off in
        if v < 0 then oob rt off 4
        else begin
          Array.unsafe_set rt.slots s v;
          k rt
        end
  | Expr.W48 ->
      fun rt ->
        let v = Net.Packet.peek_u48 rt.packet off in
        if v < 0 then oob rt off 6
        else begin
          Array.unsafe_set rt.slots s v;
          k rt
        end

(* ---- shape-specialized operators -----------------------------------

   One dedicated closure per binop node, with slot reads and constants
   fused in.  Both operands are always evaluated, left first — same as
   the interpreter (no short-circuit even for Land/Lor) — so stuck
   points and, on address-sensitive models, memory-charge order line
   up.  Div/Rem inline the zero test so no exception crosses the hot
   path for defined results. *)

let stuck_undef msg = Dv (fun (_ : srt) -> Concrete.stuck "%s" msg)

let rec specialize_binop op (a : sval) (b : sval) : sval =
  match (a, b) with
  | Kv x, Kv y -> (
      match Semantics.apply_binop op x y with
      | v -> Kv v
      | exception Semantics.Undefined msg -> stuck_undef msg)
  | _ -> (
      match op with
      | Expr.Add -> (
          match (a, b) with
          | Sv s, Kv y -> Dv (fun rt -> Array.unsafe_get rt.slots s + y)
          | Sv s1, Sv s2 ->
              Dv
                (fun rt ->
                  Array.unsafe_get rt.slots s1 + Array.unsafe_get rt.slots s2)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x + y))
      | Expr.Sub -> (
          match (a, b) with
          | Sv s, Kv y -> Dv (fun rt -> Array.unsafe_get rt.slots s - y)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x - y))
      | Expr.And -> (
          match (a, b) with
          | Sv s, Kv y -> Dv (fun rt -> Array.unsafe_get rt.slots s land y)
          | Dv f, Kv y -> Dv (fun rt -> f rt land y)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x land y))
      | Expr.Or ->
          let fa = forcev a and fb = forcev b in
          Dv
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x lor y)
      | Expr.Xor ->
          let fa = forcev a and fb = forcev b in
          Dv
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x lxor y)
      | Expr.Shl -> (
          match (a, b) with
          | Sv s, Kv y ->
              let sh = y land 63 in
              Dv (fun rt -> Array.unsafe_get rt.slots s lsl sh)
          | Dv f, Kv y ->
              let sh = y land 63 in
              Dv (fun rt -> f rt lsl sh)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x lsl (y land 63)))
      | Expr.Shr -> (
          match (a, b) with
          | Sv s, Kv y ->
              let sh = y land 63 in
              Dv (fun rt -> Array.unsafe_get rt.slots s lsr sh)
          | Dv f, Kv y ->
              let sh = y land 63 in
              Dv (fun rt -> f rt lsr sh)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x lsr (y land 63)))
      | Expr.Mul ->
          let fa = forcev a and fb = forcev b in
          Dv
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x * y)
      | Expr.Div -> (
          match b with
          | Kv 0 -> stuck_undef "division by zero"
          | Kv y ->
              let fa = forcev a in
              Dv (fun rt -> fa rt / y)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  if y = 0 then Concrete.stuck "division by zero" else x / y))
      | Expr.Rem -> (
          match b with
          | Kv 0 -> stuck_undef "remainder by zero"
          | Kv y ->
              let fa = forcev a in
              Dv (fun rt -> fa rt mod y)
          | _ ->
              let fa = forcev a and fb = forcev b in
              Dv
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  if y = 0 then Concrete.stuck "remainder by zero"
                  else x mod y))
      | Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge
      | Expr.Land | Expr.Lor -> (
          match specialize_bool op a b with
          | Bk true -> Kv 1
          | Bk false -> Kv 0
          | Bd f -> Dv (fun rt -> if f rt then 1 else 0)))

(* Comparisons and logical connectives as direct boolean tests. *)
and specialize_bool op (a : sval) (b : sval) : sbool =
  match op with
  | Expr.Eq -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x = y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s = y)
      | Kv x, Sv s -> Bd (fun rt -> x = Array.unsafe_get rt.slots s)
      | Sv s1, Sv s2 ->
          Bd
            (fun rt ->
              Array.unsafe_get rt.slots s1 = Array.unsafe_get rt.slots s2)
      | Dv f, Kv y -> Bd (fun rt -> f rt = y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x = y))
  | Expr.Ne -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x <> y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s <> y)
      | Kv x, Sv s -> Bd (fun rt -> x <> Array.unsafe_get rt.slots s)
      | Sv s1, Sv s2 ->
          Bd
            (fun rt ->
              Array.unsafe_get rt.slots s1 <> Array.unsafe_get rt.slots s2)
      | Dv f, Kv y -> Bd (fun rt -> f rt <> y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x <> y))
  | Expr.Lt -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x < y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s < y)
      | Kv x, Sv s -> Bd (fun rt -> x < Array.unsafe_get rt.slots s)
      | Dv f, Kv y -> Bd (fun rt -> f rt < y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x < y))
  | Expr.Le -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x <= y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s <= y)
      | Dv f, Kv y -> Bd (fun rt -> f rt <= y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x <= y))
  | Expr.Gt -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x > y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s > y)
      | Dv f, Kv y -> Bd (fun rt -> f rt > y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x > y))
  | Expr.Ge -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x >= y)
      | Sv s, Kv y -> Bd (fun rt -> Array.unsafe_get rt.slots s >= y)
      | Dv f, Kv y -> Bd (fun rt -> f rt >= y)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt in
              let y = fb rt in
              x >= y))
  | Expr.Land -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x <> 0 && y <> 0)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt <> 0 in
              let y = fb rt <> 0 in
              x && y))
  | Expr.Lor -> (
      match (a, b) with
      | Kv x, Kv y -> Bk (x <> 0 || y <> 0)
      | _ ->
          let fa = forcev a and fb = forcev b in
          Bd
            (fun rt ->
              let x = fa rt <> 0 in
              let y = fb rt <> 0 in
              x || y))
  | _ -> (
      match specialize_binop op a b with
      | Kv n -> Bk (n <> 0)
      | Sv s -> Bd (fun rt -> Array.unsafe_get rt.slots s <> 0)
      | Dv f -> Bd (fun rt -> f rt <> 0))

(* Constant-offset packet stores on the batched path, fused with their
   continuation; one closure per width, as for loads. *)
let store_b w off (value : srt -> int) (k : srt -> int) : srt -> int =
  match w with
  | Expr.W8 ->
      fun rt ->
        if Net.Packet.poke_u8 rt.packet off (value rt) then k rt
        else oob rt off 1
  | Expr.W16 ->
      fun rt ->
        if Net.Packet.poke_u16 rt.packet off (value rt) then k rt
        else oob rt off 2
  | Expr.W32 ->
      fun rt ->
        if Net.Packet.poke_u32 rt.packet off (value rt) then k rt
        else oob rt off 4
  | Expr.W48 ->
      fun rt ->
        if Net.Packet.poke_u48 rt.packet off (value rt) then k rt
        else oob rt off 6

(* A call site's argument plan: slot reads copy straight into the
   preallocated argv, any other operand runs its closure. *)
type args = {
  argv : int array;
  src : int array;  (** operand's slot, or -1 *)
  fns : (srt -> int) array;
}

let marshal a rt =
  for i = 0 to Array.length a.src - 1 do
    let s = Array.unsafe_get a.src i in
    Array.unsafe_set a.argv i
      (if s >= 0 then Array.unsafe_get rt.slots s
       else (Array.unsafe_get a.fns i) rt)
  done

type t = {
  specialized : bool;
  run_fn : ?in_port:int -> ?now:int -> Net.Packet.t -> Concrete.run;
  exec_fn : in_port:int -> now:int -> Net.Packet.t -> int;
  out_port_fn : unit -> int;
}

let specialized t = t.specialized
let run t = t.run_fn
let exec t ~in_port ~now packet = t.exec_fn ~in_port ~now packet
let out_port t = t.out_port_fn ()

let outcome_of_code t code =
  if code = code_sent then Concrete.Sent (t.out_port_fn ())
  else if code = code_dropped then Concrete.Dropped
  else if code = code_flooded then Concrete.Flooded
  else invalid_arg "Specialize.outcome_of_code: not an outcome code"

(* Comments compile to nothing; an all-comment block is empty. *)
let rec block_empty = function
  | [] -> true
  | Stmt.Comment _ :: rest -> block_empty rest
  | _ -> false

(* Does every path through [block] end in a [Return]?  Conservative: a
   loop, or a branch with an arm that falls through, counts as falling
   through even when its condition is constant. *)
let rec terminates block =
  List.exists
    (function
      | Stmt.Return _ -> true
      | Stmt.If (_, a, b) -> terminates a && terminates b
      | _ -> false)
    block

(* Compile [program] against the frozen (dss, meter) binding.  Raises
   [Not_specializable] when a call site has no fast path. *)
let build program (dss : Ds.env) meter =
  let batch = Meter.model_mem_bulk meter <> None in
  let coupled = Meter.coupled_mem meter && not batch in
  let mpack = Meter.model_instr_pack meter in
  let slots_tbl = Hashtbl.create 16 in
  let next_slot = ref 0 in
  let slot_of v =
    match Hashtbl.find_opt slots_tbl v with
    | Some s -> s
    | None ->
        let s = !next_slot in
        incr next_slot;
        Hashtbl.add slots_tbl v s;
        s
  in
  (* every variable a packet can bind has its slot from here on *)
  List.iter (fun v -> ignore (slot_of v)) Program.input_vars;
  List.iter
    (fun v -> ignore (slot_of v))
    (Eval.assigned_vars program.Program.body);
  (* where calls without a return variable write their result *)
  let discard = !next_slot in
  incr next_slot;
  let counts = Array.make n_counts 0 in
  let mmem = Meter.model_mem meter in
  let sink =
    {
      Ds.s_counts = counts;
      s_mem =
        (if batch then fun ~addr:_ ~write:_ ~dependent:_ ->
           Array.unsafe_set counts i_mem (Array.unsafe_get counts i_mem + 1)
         else if coupled then fun ~addr ~write ~dependent ->
           retire mpack counts;
           mmem ~addr ~write ~dependent
         else mmem);
      s_mem_batched = batch;
      s_meter = meter;
    }
  in
  let resolve instance meth =
    match List.assoc_opt instance dss with
    | None -> raise Not_specializable
    | Some ds -> (
        match ds.Ds.fast_path sink meth with
        | Some f -> f
        | None -> raise Not_specializable)
  in
  (* Expressions charge their static cost into [pack], the running
     path's static charges. *)
  let rec sexpr pack (e : Expr.t) : sval =
    match e with
    | Expr.Const n -> Kv n
    | Expr.Var v -> (
        match Hashtbl.find_opt slots_tbl v with
        | Some s -> Sv s
        | None -> Dv (fun _ -> Concrete.stuck "unbound variable %s" v))
    | Expr.Pkt_len ->
        add pack i_move 1;
        Dv (fun rt -> Net.Packet.length rt.packet)
    | Expr.Pkt_load (w, off_e) -> (
        let voff = sexpr pack off_e in
        add pack i_load 1;
        if batch then add pack i_mem 1;
        let bytes = Expr.bytes_of_width w and peek = peek w in
        match voff with
        | Kv off when off >= 0 && batch -> dv_load_b w off
        | Kv off when off >= 0 && coupled ->
            let addr = Concrete.packet_base + off and land_ = cut pack in
            Dv
              (fun rt ->
                land_ rt;
                rt.mmem ~addr ~write:false ~dependent:false;
                let v = peek rt.packet off in
                if v < 0 then oob rt off bytes else v)
        | voff when coupled ->
            let off = forcev voff and land_ = cut pack in
            Dv
              (fun rt ->
                let off = off rt in
                if off < 0 then Concrete.stuck "negative packet offset";
                land_ rt;
                rt.mmem ~addr:(Concrete.packet_base + off) ~write:false
                  ~dependent:false;
                let v = peek rt.packet off in
                if v < 0 then oob rt off bytes else v)
        | Kv off when off >= 0 ->
            let addr = Concrete.packet_base + off in
            Dv
              (fun rt ->
                rt.mmem ~addr ~write:false ~dependent:false;
                let v = peek rt.packet off in
                if v < 0 then oob rt off bytes else v)
        | voff ->
            let off = forcev voff in
            Dv
              (fun rt ->
                let off = off rt in
                if off < 0 then Concrete.stuck "negative packet offset";
                if not batch then
                  rt.mmem ~addr:(Concrete.packet_base + off) ~write:false
                    ~dependent:false;
                let v = peek rt.packet off in
                if v < 0 then oob rt off bytes else v))
    | Expr.Unop (op, a) -> (
        let va = sexpr pack a in
        add pack i_alu 1;
        match (op, va) with
        | _, Kv v -> Kv (Semantics.apply_unop op v)
        | Expr.Lnot, Sv s ->
            Dv (fun rt -> if Array.unsafe_get rt.slots s = 0 then 1 else 0)
        | Expr.Lnot, v ->
            let f = forcev v in
            Dv (fun rt -> if f rt = 0 then 1 else 0)
        | Expr.Bnot, v ->
            let f = forcev v in
            Dv (fun rt -> lnot (f rt) land 0xffff_ffff))
    | Expr.Binop (op, a, b) ->
        let va = sexpr pack a in
        let vb = sexpr pack b in
        add pack (Hw.Cost.kind_index (Concrete.kind_of_binop op)) 1;
        specialize_binop op va vb
  in
  (* Conditions compile to direct boolean tests: comparisons never
     materialize 0/1, and a connective over comparisons tests both
     sides (both always evaluated, as in the interpreter). *)
  let rec scond pack (e : Expr.t) : sbool =
    match e with
    | Expr.Binop (((Expr.Land | Expr.Lor) as op), a, b) -> (
        let ca = scond pack a in
        let cb = scond pack b in
        add pack (Hw.Cost.kind_index (Concrete.kind_of_binop op)) 1;
        let land_ = op = Expr.Land in
        match (ca, cb) with
        | Bk x, Bk y -> Bk (if land_ then x && y else x || y)
        | _ ->
            let force = function Bk b -> fun (_ : srt) -> b | Bd f -> f in
            let fa = force ca and fb = force cb in
            if land_ then
              Bd
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x && y)
            else
              Bd
                (fun rt ->
                  let x = fa rt in
                  let y = fb rt in
                  x || y))
    | Expr.Binop (op, a, b) ->
        let va = sexpr pack a in
        let vb = sexpr pack b in
        add pack (Hw.Cost.kind_index (Concrete.kind_of_binop op)) 1;
        specialize_bool op va vb
    | _ -> (
        match sexpr pack e with
        | Kv n -> Bk (n <> 0)
        | Sv s -> Bd (fun rt -> Array.unsafe_get rt.slots s <> 0)
        | Dv f -> Bd (fun rt -> f rt <> 0))
  in
  let store_link pack w off_e val_e : (srt -> int) -> srt -> int =
    let off = sexpr pack off_e in
    let value = forcev (sexpr pack val_e) in
    add pack i_store 1;
    if batch then add pack i_mem 1;
    match off with
    | Kv off when off >= 0 && batch -> store_b w off value
    | _ when coupled ->
        let off = forcev off and bytes = Expr.bytes_of_width w in
        let poke = poke w and land_ = cut pack in
        fun k rt ->
          let off = off rt in
          let v = value rt in
          if off < 0 then Concrete.stuck "negative packet offset";
          land_ rt;
          rt.mmem ~addr:(Concrete.packet_base + off) ~write:true
            ~dependent:false;
          if poke rt.packet off v then k rt else oob rt off bytes
    | _ ->
        let off = forcev off and bytes = Expr.bytes_of_width w in
        let poke = poke w in
        fun k rt ->
          let off = off rt in
          let v = value rt in
          if off < 0 then Concrete.stuck "negative packet offset";
          if not batch then
            rt.mmem ~addr:(Concrete.packet_base + off) ~write:true
              ~dependent:false;
          if poke rt.packet off v then k rt else oob rt off bytes
  in
  let call_link pack { Stmt.ret; instance; meth; args } :
      (srt -> int) -> srt -> int =
    let vals = List.map (sexpr pack) args in
    add pack i_call 1;
    (* coupled: [Ret] and the result move land after the callee's
       accesses, with whatever it left in the counters *)
    let post = if coupled then Array.make n_counts 0 else pack in
    add post i_ret 1;
    let plan =
      {
        argv = Array.make (max (List.length vals) 1) 0;
        src = Array.of_list (List.map (function Sv s -> s | _ -> -1) vals);
        fns = Array.of_list (List.map forcev vals);
      }
    in
    let fn = resolve instance meth in
    let r =
      match ret with
      | None -> discard
      | Some v ->
          add post i_move 1;
          slot_of v
    in
    if coupled then
      let land_ = cut pack in
      fun k rt ->
        marshal plan rt;
        Obs.Metrics.incr Concrete.c_calls;
        land_ rt;
        let v = fn plan.argv in
        settle_packed post rt;
        Array.unsafe_set rt.slots r v;
        k rt
    else fun k rt ->
      marshal plan rt;
      Obs.Metrics.incr Concrete.c_calls;
      Array.unsafe_set rt.slots r (fn plan.argv);
      k rt
  in
  (* A block compiles to one closure chain returning an outcome code,
     or [k_next] when a rejoining arm or loop body ([join = Some base])
     runs off its end.  [pack] is the static charge every packet
     reaching this point has incurred and nobody has applied yet; it is
     owned by this chain, so branches hand each arm a copy.  [dirty]:
     a call on the path may have left charges in the deferred
     counters, so exits must retire them too. *)
  let rec chain pack ~dirty ~join (block : Stmt.block) : srt -> int =
    match block with
    | [] -> (
        match join with
        | None -> fun (_ : srt) -> k_next
        | Some base ->
            (* the arm's own charges land here; the shared prefix
               [base] is left to the continuation's exits *)
            let own = Array.mapi (fun i n -> n - base.(i)) pack in
            if Array.for_all (( = ) 0) own then fun (_ : srt) -> k_next
            else
              let c = if coupled then packed own else direct own in
              fun rt ->
                c rt;
                k_next)
    | Stmt.Comment _ :: rest -> chain pack ~dirty ~join rest
    | Stmt.Assign (v, Expr.Pkt_load (w, Expr.Const off)) :: rest
      when off >= 0 && batch ->
        add pack i_load 1;
        add pack i_mem 1;
        add pack i_move 1;
        load_assign_b w off (slot_of v) (chain pack ~dirty ~join rest)
    | Stmt.Assign (v, e) :: rest -> (
        let value = sexpr pack e in
        add pack i_move 1;
        let s = slot_of v in
        let k = chain pack ~dirty ~join rest in
        match value with
        | Kv n ->
            fun rt ->
              Array.unsafe_set rt.slots s n;
              k rt
        | Sv s' ->
            fun rt ->
              Array.unsafe_set rt.slots s (Array.unsafe_get rt.slots s');
              k rt
        | Dv f ->
            fun rt ->
              Array.unsafe_set rt.slots s (f rt);
              k rt)
    | Stmt.Pkt_store (w, off_e, val_e) :: rest ->
        let link = store_link pack w off_e val_e in
        link (chain pack ~dirty ~join rest)
    | Stmt.Call c :: rest ->
        let link = call_link pack c in
        link (chain pack ~dirty:true ~join rest)
    | Stmt.If (cond_e, a, b) :: rest -> (
        let cond = scond pack cond_e in
        add pack i_branch 1;
        match cond with
        | Bk true -> chain pack ~dirty ~join (a @ rest)
        | Bk false -> chain pack ~dirty ~join (b @ rest)
        | Bd c -> (
            let exit_arm blk = chain (Array.copy pack) ~dirty ~join blk in
            match (terminates a, terminates b) with
            | true, true ->
                let ca = exit_arm a and cb = exit_arm b in
                fun rt -> if c rt then ca rt else cb rt
            | true, false ->
                (* guard exit: the other arm and the rest of the block
                   carry on accumulating the same pack *)
                let ca = exit_arm a in
                let k = chain pack ~dirty ~join (b @ rest) in
                fun rt -> if c rt then ca rt else k rt
            | false, true ->
                let cb = exit_arm b in
                let k = chain pack ~dirty ~join (a @ rest) in
                fun rt -> if c rt then k rt else cb rt
            | false, false when block_empty a && block_empty b ->
                (* still evaluate: the condition may charge memory
                   accesses (unbatched) or get stuck *)
                let k = chain pack ~dirty ~join rest in
                fun rt ->
                  ignore (c rt : bool);
                  k rt
            | false, false -> (
                (* both arms rejoin: each applies its own charges as it
                   leaves, the rest keeps the shared prefix — which a
                   coupled model needs landed before either arm's
                   accesses, so there the prefix lands after the test
                   and every arm starts from an empty pack *)
                let c =
                  if coupled then
                    let land_ = cut pack in
                    fun rt ->
                      let b = c rt in
                      land_ rt;
                      b
                  else c
                in
                let base = Array.copy pack in
                let rejoin blk =
                  chain (Array.copy pack) ~dirty ~join:(Some base) blk
                in
                let ca = rejoin a and cb = rejoin b in
                let dirty = dirty || Eval.block_calls a || Eval.block_calls b in
                let k = chain pack ~dirty ~join rest in
                match (block_empty a, block_empty b) with
                | false, true ->
                    fun rt ->
                      if c rt then
                        let r = ca rt in
                        if r == k_next then k rt else r
                      else k rt
                | true, false ->
                    fun rt ->
                      if c rt then k rt
                      else
                        let r = cb rt in
                        if r == k_next then k rt else r
                | _ ->
                    fun rt ->
                      let r = if c rt then ca rt else cb rt in
                      if r == k_next then k rt else r)))
    | Stmt.While (kind, cond_e, body) :: rest ->
        (* each test applies its own pack, each pass of the body its own
           charges; the rest keeps the prefix *)
        let lbound, lobs =
          match kind with
          | Stmt.Unroll n -> (n, None)
          | Stmt.Pcv_loop (name, n) -> (n, Some (Perf.Pcv.v name))
        in
        let cpack = Array.make n_counts 0 in
        let lcond =
          match scond cpack cond_e with
          | Bk b -> fun (_ : srt) -> b
          | Bd f -> f
        in
        add cpack i_branch 1;
        let dirty = dirty || Eval.block_calls body in
        (* coupled: the prefix lands before the loop, and each test's
           charges after the test itself (its accesses cut their own
           share); the body and the rest start from empty packs *)
        let prefix = if coupled then cut pack else nothing in
        let ccharge, lcond =
          if coupled then
            let land_ = cut cpack in
            ( nothing,
              fun rt ->
                let b = lcond rt in
                land_ rt;
                b )
          else (direct cpack, lcond)
        in
        let base = Array.copy pack in
        let lbody = chain (Array.copy pack) ~dirty ~join:(Some base) body in
        let k = chain pack ~dirty ~join rest in
        let cfg = { ccharge; lcond; lbody; lbound; lobs } in
        if coupled then fun rt ->
          prefix rt;
          let r = loop_iter cfg 0 rt in
          if r == k_next then k rt else r
        else fun rt ->
          let r = loop_iter cfg 0 rt in
          if r == k_next then k rt else r
    | Stmt.Return action :: _ -> (
        (* an exit: the whole path's static charge (RX framing + path +
           TX framing) lands at once, with the deferred counters only
           when a call may have filled them *)
        add pack i_ret 1;
        let port =
          match action with
          | Stmt.Forward e -> Some (sexpr pack e)
          | Stmt.Drop | Stmt.Flood -> None
        in
        let dropped = action = Stmt.Drop in
        let code =
          match action with
          | Stmt.Forward _ -> code_sent
          | Stmt.Drop -> code_dropped
          | Stmt.Flood -> code_flooded
        in
        let exit =
          if coupled then tx_coupled pack ~dropped
          else begin
            add_tx pack ~batch ~dropped;
            let charge =
              if dirty then
                let p = Array.copy pack in
                fun rt -> settle p rt
              else direct pack
            in
            if batch then charge
            else fun rt ->
              charge rt;
              tx_mems ~dropped rt
          end
        in
        match port with
        | None ->
            fun rt ->
              exit rt;
              code
        | Some (Kv p) ->
            fun rt ->
              rt.out_port <- p;
              exit rt;
              code_sent
        | Some (Sv s) ->
            fun rt ->
              rt.out_port <- Array.unsafe_get rt.slots s;
              exit rt;
              code_sent
        | Some (Dv f) ->
            fun rt ->
              rt.out_port <- f rt;
              exit rt;
              code_sent)
  in
  let body =
    let pack = Array.make n_counts 0 in
    (* coupled: the RX ring accesses fire before the body, which opens
       with the framing's trailing branches *)
    if coupled then add pack i_branch 2 else add_rx pack ~batch;
    chain pack ~dirty:false ~join:None program.Program.body
  in
  let in_port_slot = slot_of "in_port" and now_slot = slot_of "now" in
  let rx = if coupled then rx_coupled else rx_mems in
  let rt =
    {
      meter;
      packet = Net.Packet.create 0;
      slots = Array.make !next_slot 0;
      counts;
      minstr = Meter.model_instr meter;
      mpack;
      mmem;
      mbulk =
        (match Meter.model_mem_bulk meter with
        | Some f -> f
        | None -> fun (_ : int) -> ());
      out_port = 0;
    }
  in
  let exec_fn ~in_port ~now packet =
    rt.packet <- packet;
    Array.unsafe_set rt.slots in_port_slot in_port;
    Array.unsafe_set rt.slots now_slot now;
    if not batch then rx rt;
    match body rt with
    | code ->
        if code == k_next then begin
          flush rt;
          Concrete.stuck "program fell through without returning"
        end
        else code
    | exception e ->
        (* a stuck packet reached no exit: retire what the fast paths
           deferred, so the next packet starts from clean counters *)
        flush rt;
        raise e
  in
  let run_fn ?(in_port = 0) ?(now = 0) packet =
    let ic0 = Meter.ic meter and ma0 = Meter.ma meter in
    let cy0 = Meter.cycles meter in
    let code = exec_fn ~in_port ~now packet in
    let outcome =
      if code == code_sent then Concrete.Sent rt.out_port
      else if code == code_dropped then Concrete.Dropped
      else Concrete.Flooded
    in
    Concrete.record
      {
        Concrete.outcome;
        ic = Meter.ic meter - ic0;
        ma = Meter.ma meter - ma0;
        cycles = Meter.cycles meter - cy0;
      }
  in
  { specialized = true; run_fn; exec_fn; out_port_fn = (fun () -> rt.out_port) }

(* The generic-runner disposition: correctness-first, never zero-alloc. *)
let fallback ct ~meter ~mode =
  let run_fn = Compiled.runner ct ~meter ~mode in
  let last_port = ref 0 in
  let exec_fn ~in_port ~now packet =
    let r = run_fn ~in_port ~now packet in
    match r.Concrete.outcome with
    | Concrete.Sent p ->
        last_port := p;
        code_sent
    | Concrete.Dropped -> code_dropped
    | Concrete.Flooded -> code_flooded
  in
  { specialized = false; run_fn; exec_fn; out_port_fn = (fun () -> !last_port) }

let bind ct ~meter ~mode =
  if Meter.tracing meter then
    fallback ct ~meter ~mode
  else
    match mode with
    | Concrete.Analysis _ -> fallback ct ~meter ~mode
    | Concrete.Production dss -> (
        match build (Compiled.program ct) dss meter with
        | t -> t
        | exception Not_specializable -> fallback ct ~meter ~mode)
