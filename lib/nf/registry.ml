(* The NF catalogue: look NFs up by name and bundle their analysis
   ingredients, so drivers (CLI, bench, examples, tests) stop re-wiring
   programs, contracts and classes by hand.  Every entry is derived from
   a value-level Spec.t — the same values the tuner enumerates — rather
   than hand-wired per file. *)

type frozen = { knobs : Spec.knob list }

type entry = {
  name : string;
  spec : Spec.t;
  program : Ir.Program.t;
  contracts : Perf.Ds_contract.library;
  classes : Symbex.Iclass.t list;
  setup : Dslib.Layout.allocator -> Exec.Ds.env;
  frozen : frozen option;
}

let of_spec spec =
  let name = Spec.name spec in
  let frozen =
    Option.map (fun knobs -> { knobs }) (Spec.frozen_knobs spec)
  in
  let stateless = Perf.Ds_contract.library [] in
  let program, contracts, classes, setup =
    match spec with
    | Spec.Bridge c ->
        ( Bridge.program,
          Bridge.contracts ~config:c (),
          Bridge.classes ~config:c (),
          fun alloc -> fst (Bridge.setup ~config:c alloc) )
    | Spec.Nat c ->
        ( Nat.program,
          Nat.contracts ~config:c (),
          Nat.classes ~config:c (),
          fun alloc -> fst (Nat.setup ~config:c alloc) )
    | Spec.Maglev c ->
        ( Maglev.program,
          Maglev.contracts ~config:c (),
          Maglev.classes ~config:c (),
          fun alloc -> fst (Maglev.setup ~config:c alloc) )
    | Spec.Router r ->
        ( Router.program r.Spec.backend,
          Router.contracts r.Spec.backend,
          Router.classes r.Spec.backend,
          fun alloc ->
            fst (Router.setup r.Spec.backend alloc ~routes:r.Spec.routes) )
    | Spec.Conntrack c ->
        ( Conntrack.program,
          Conntrack.contracts ~config:c (),
          Conntrack.classes ~config:c (),
          fun alloc -> fst (Conntrack.setup ~config:c alloc) )
    | Spec.Limiter c ->
        ( Limiter.program,
          Limiter.contracts ~config:c (),
          Limiter.classes (),
          fun alloc -> fst (Limiter.setup ~config:c alloc) )
    | Spec.Policer c ->
        ( Policer.program,
          Policer.contracts (),
          Policer.classes (),
          fun alloc -> fst (Policer.setup ~config:c alloc) )
    | Spec.Responder ->
        (Responder.program, stateless, Responder.classes (), fun _ -> [])
    | Spec.Firewall ->
        (Firewall.program, stateless, Firewall.classes (), fun _ -> [])
    | Spec.Static_router ->
        (Static_router.program, stateless, Static_router.classes (), fun _ ->
          [])
  in
  { name; spec; program; contracts; classes; setup; frozen }

let all () = List.map of_spec (Spec.defaults ())
let names () = List.map (fun e -> e.name) (all ())

let specialize e ~meter =
  let dss = e.setup (Dslib.Layout.allocator ()) in
  (Exec.Specialize.bind e.program ~meter ~mode:(Exec.Interp.Production dss),
    dss)

let find name =
  match List.find_opt (fun e -> e.name = name) (all ()) with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "unknown NF %S (try: %s)" name
           (String.concat ", " (names ())))
