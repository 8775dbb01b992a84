type event =
  | E_instr of Hw.Cost.kind * int
  | E_mem of { addr : int; write : bool; dependent : bool }
  | E_call of { instance : string; meth : string; args : int array; ret : int }
  | E_loop_head of string
  | E_loop_iter of string
  | E_loop_exit of string
  | E_branch of bool

type marker =
  | Call of { instance : string; meth : string }
  | Loop_head of string
  | Loop_iter of string
  | Loop_exit of string

(* Observations live in a pair of parallel growable arrays rather than a
   list: [observe] is on the per-packet fast path of every stateful NF, and
   after the arrays have grown to the packet's high-water mark it allocates
   nothing.  [reset_observations] only rewinds the length. *)
type t = {
  model : Hw.Model.t;
  tracing : bool;
  on_marker : (marker -> unit) option;
  mutable events : event list;  (** reversed *)
  mutable obs_pcv : Perf.Pcv.t array;
  mutable obs_val : int array;
  mutable obs_len : int;
}

let create ?(trace = false) ?on_marker model =
  {
    model;
    tracing = trace;
    on_marker;
    events = [];
    obs_pcv = Array.make 16 Perf.Pcv.expired;
    obs_val = Array.make 16 0;
    obs_len = 0;
  }

(* Markers and events are built only when a hook or the trace takes
   them: an untraced, unhooked meter allocates nothing per charge. *)
let push t e = t.events <- e :: t.events

let instr t kind n =
  t.model.Hw.Model.instr kind n;
  if t.tracing then push t (E_instr (kind, n))

let mem t ?(write = false) ?(dependent = false) addr =
  t.model.Hw.Model.mem ~addr ~write ~dependent;
  if t.tracing then push t (E_mem { addr; write; dependent })

let call_event t ~instance ~meth ~args ~ret =
  (match t.on_marker with Some f -> f (Call { instance; meth }) | None -> ());
  if t.tracing then push t (E_call { instance; meth; args; ret })

let branch t taken = if t.tracing then push t (E_branch taken)

let loop_head t pcv =
  (match t.on_marker with Some f -> f (Loop_head pcv) | None -> ());
  if t.tracing then push t (E_loop_head pcv)

let loop_iter t pcv =
  (match t.on_marker with Some f -> f (Loop_iter pcv) | None -> ());
  if t.tracing then push t (E_loop_iter pcv)

let loop_exit t pcv =
  (match t.on_marker with Some f -> f (Loop_exit pcv) | None -> ());
  if t.tracing then push t (E_loop_exit pcv)

let grow t =
  let cap = Array.length t.obs_pcv in
  let cap' = 2 * cap in
  let pcv' = Array.make cap' Perf.Pcv.expired in
  let val' = Array.make cap' 0 in
  Array.blit t.obs_pcv 0 pcv' 0 cap;
  Array.blit t.obs_val 0 val' 0 cap;
  t.obs_pcv <- pcv';
  t.obs_val <- val'

let observe t pcv value =
  if t.obs_len = Array.length t.obs_pcv then grow t;
  Array.unsafe_set t.obs_pcv t.obs_len pcv;
  Array.unsafe_set t.obs_val t.obs_len value;
  t.obs_len <- t.obs_len + 1

let tracing t = t.tracing
let coupled_mem t = t.model.Hw.Model.coupled_mem
let model_instr t = t.model.Hw.Model.instr
let model_instr_pack t = t.model.Hw.Model.instr_pack
let model_mem t = t.model.Hw.Model.mem
let model_mem_bulk t = t.model.Hw.Model.mem_bulk
let ic t = t.model.Hw.Model.instr_count ()
let ma t = t.model.Hw.Model.mem_count ()
let cycles t = t.model.Hw.Model.cycles ()
let events t = List.rev t.events

let observations t =
  let rec build i acc =
    if i < 0 then acc
    else build (i - 1) ((t.obs_pcv.(i), t.obs_val.(i)) :: acc)
  in
  build (t.obs_len - 1) []

let fold_binding combine t =
  let acc = ref [] in
  for i = 0 to t.obs_len - 1 do
    let pcv = t.obs_pcv.(i) and v = t.obs_val.(i) in
    acc :=
      (match List.assoc_opt pcv !acc with
      | None -> (pcv, v) :: !acc
      | Some v' -> (pcv, combine v v') :: List.remove_assoc pcv !acc)
  done;
  List.sort (fun (a, _) (b, _) -> Perf.Pcv.compare a b) !acc

let pcv_max t = fold_binding max t
let pcv_sum t = fold_binding ( + ) t

let reset_observations t =
  t.obs_len <- 0;
  t.events <- []
