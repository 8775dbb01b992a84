module P = Workload.Prng

type failure = {
  oracle : string;
  seed : int;
  detail : string;
  repro : string;
}

type verdict = Pass | Fail of failure

type t = { name : string; run : seed:int -> verdict }

let repro_of name seed =
  Printf.sprintf "bolt fuzz --oracle %s --seed %d --runs 1" name seed

let fail name seed fmt =
  Format.kasprintf
    (fun detail -> Fail { oracle = name; seed; detail; repro = repro_of name seed })
    fmt

(* ---- Subjects -------------------------------------------------------- *)

type subject =
  | Registry of Nf.Registry.entry
  | Generated of Ir.Program.t

let pick_subject rng =
  if P.bool rng 0.3 then Generated (Gen_ir.program rng)
  else
    let entries = Nf.Registry.all () in
    Registry (List.nth entries (P.below rng (List.length entries)))

let subject_name = function
  | Registry e -> "nf " ^ e.Nf.Registry.name
  | Generated p -> "generated program " ^ p.Ir.Program.name

let subject_program = function
  | Registry e -> e.Nf.Registry.program
  | Generated p -> p

let subject_config = function
  | Registry e ->
      Bolt.Pipeline.Config.(default |> with_contracts e.Nf.Registry.contracts)
  | Generated _ -> Bolt.Pipeline.Config.default

(* ---- Shared helpers -------------------------------------------------- *)

(* The full observable output of an analysis, as a string: unsolved
   count, every path with costs and witness, and the worst-case vector.
   Two runs are "identical" iff their fingerprints are equal. *)
let fingerprint (t : Bolt.Pipeline.t) =
  let worst =
    if t.Bolt.Pipeline.analyses = [] then "(no paths)"
    else Format.asprintf "%a" Perf.Cost_vec.pp (Bolt.Pipeline.worst_case t)
  in
  Format.asprintf "unsolved:%d@.%a@.worst: %s" t.Bolt.Pipeline.unsolved
    (Bolt.Report.pp_paths ~witnesses:true)
    t worst

let first_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys when String.equal x y -> go (i + 1) (xs, ys)
    | x :: _, y :: _ -> Printf.sprintf "line %d:\n  a: %s\n  b: %s" i x y
    | x :: _, [] -> Printf.sprintf "line %d only in a: %s" i x
    | [], y :: _ -> Printf.sprintf "line %d only in b: %s" i y
    | [], [] -> "(identical)"
  in
  go 1 (la, lb)

(* PCV binding for one packet: the max each PCV of [worst] (plus any
   observed PCV) reached, 0 for PCVs never observed — derived from the
   contract under test, so a new PCV can never silently escape the
   check. *)
let binding_of ~worst observations =
  let universe =
    List.sort_uniq Perf.Pcv.compare
      (Perf.Cost_vec.pcvs worst @ List.map fst observations)
  in
  List.map
    (fun pcv ->
      ( pcv,
        List.fold_left
          (fun acc (p, v) -> if Perf.Pcv.equal p pcv then max acc v else acc)
          0 observations ))
    universe

type violation = {
  index : int;
  metric : Perf.Metric.t;
  bound : int;
  measured : int;
  binding : Perf.Pcv.binding;
}

let check_packet ~worst ~index ~ic ~ma observations =
  let binding = binding_of ~worst observations in
  List.filter_map
    (fun (metric, measured) ->
      match Perf.Cost_vec.eval binding worst metric with
      | Error _ -> None (* unreachable: the binding covers worst's PCVs *)
      | Ok bound ->
          if bound < measured then
            Some { index; metric; bound; measured; binding }
          else None)
    [ (Perf.Metric.Instructions, ic); (Perf.Metric.Memory_accesses, ma) ]

let pp_violation ppf v =
  Format.fprintf ppf "packet %d: %s bound %d < measured %d at %a" v.index
    (Perf.Metric.to_string v.metric)
    v.bound v.measured Perf.Pcv.pp_binding v.binding

(* ---- Oracle 1: contract conservativeness ----------------------------- *)

let conservativeness ?(weaken = Fun.id) () =
  let name = "conservativeness" in
  let registry_case rng seed (entry : Nf.Registry.entry) =
    let t =
      Bolt.Pipeline.analyze
        ~config:(subject_config (Registry entry))
        entry.Nf.Registry.program
    in
    let worst = weaken (Bolt.Pipeline.worst_case t) in
    let violations stream =
      let dss = entry.Nf.Registry.setup (Dslib.Layout.allocator ()) in
      let result =
        Distiller.Run.run ~hw:(Hw.Model.null ()) ~dss
          entry.Nf.Registry.program stream
      in
      List.rev
        (Distiller.Run.fold result
           (fun acc (r : Distiller.Run.packet_report) ->
             List.rev_append
               (check_packet ~worst ~index:r.Distiller.Run.index
                  ~ic:r.Distiller.Run.ic ~ma:r.Distiller.Run.ma
                  r.Distiller.Run.observations)
               acc)
           [])
    in
    let stream =
      Gen_net.stream_for rng ~nf:entry.Nf.Registry.name
        ~packets:(60 + P.below rng 80)
    in
    match violations stream with
    | [] -> Pass
    | _ ->
        let shrunk, steps =
          Shrink.minimize ~max_evals:120
            ~still_fails:(fun s -> violations s <> [])
            ~candidates:Shrink.list stream
        in
        let v = List.hd (violations shrunk) in
        fail name seed
          "%s: contract not conservative@.%a@.stream shrunk to %d packets \
           (%d steps, from %d)"
          (subject_name (Registry entry))
          pp_violation v (List.length shrunk) steps (List.length stream)
  in
  let generated_case rng seed program =
    let t = Bolt.Pipeline.analyze ~config:Bolt.Pipeline.Config.default program in
    if t.Bolt.Pipeline.unsolved > 0 then
      (* solver incompleteness keeps a path out of the contract — not a
         soundness verdict either way, so skip this subject *)
      Pass
    else
      let worst = weaken (Bolt.Pipeline.worst_case t) in
      let exec (e : Workload.Stream.entry) =
        let meter = Exec.Meter.create (Hw.Model.null ()) in
        let run =
          Exec.Interp.run ~meter ~mode:(Exec.Interp.Production [])
            ~in_port:e.Workload.Stream.in_port ~now:e.Workload.Stream.now
            program e.Workload.Stream.packet
        in
        (run, Exec.Meter.observations meter)
      in
      (* a finding is either a bound violation or an interpreter crash *)
      let findings entries =
        List.concat_map
          (fun e ->
            match exec e with
            | run, obs ->
                List.map Result.ok
                  (check_packet ~worst ~index:0 ~ic:run.Exec.Interp.ic
                     ~ma:run.Exec.Interp.ma obs)
            | exception Exec.Interp.Stuck msg -> [ Error msg ])
          entries
      in
      let entries =
        List.init 40 (fun _ ->
            Gen_net.entry rng ~now:(P.below rng 100_000) (Gen_net.packet rng))
      in
      match findings entries with
      | [] -> Pass
      | _ ->
          let shrunk, _ =
            Shrink.minimize ~max_evals:120
              ~still_fails:(fun es -> findings es <> [])
              ~candidates:Shrink.list entries
          in
          let witness =
            match shrunk with
            | e :: _ -> Bolt.Report.witness_line e.Workload.Stream.packet
            | [] -> "?"
          in
          (match List.hd (findings shrunk) with
          | Error msg ->
              fail name seed
                "%s: interpreter stuck (%s) on generated packet@.packet: \
                 %s@.%a"
                (subject_name (Generated program))
                msg witness Ir.Program.pp program
          | Ok v ->
              fail name seed "%s: contract not conservative@.%a@.packet: %s@.%a"
                (subject_name (Generated program))
                pp_violation v witness Ir.Program.pp program)
  in
  let run ~seed =
    let rng = P.create ~seed in
    match pick_subject rng with
    | Registry entry -> registry_case rng seed entry
    | Generated program -> generated_case rng seed program
  in
  { name; run }

(* ---- Oracle 2: cache equivalence ------------------------------------- *)

let verdict_kind = function
  | Solver.Solve.Sat _ -> "sat"
  | Solver.Solve.Unsat -> "unsat"
  | Solver.Solve.Unknown -> "unknown"

(* Random affine constraint sets in the engine's language: comparisons
   of small linear combinations of bounded symbols, with a little
   conj/disj/negation structure. *)
let gen_constraint_sets rng =
  let gen = Solver.Sym.gen () in
  let nsyms = 2 + P.below rng 3 in
  let syms =
    Array.init nsyms (fun i ->
        Solver.Sym.fresh gen ~lo:0
          ~hi:(1 + P.below rng 1000)
          (Printf.sprintf "s%d" i))
  in
  let lin () =
    let e = Solver.Linexpr.const (P.below rng 60 - 30) in
    Array.fold_left
      (fun acc s ->
        if P.bool rng 0.6 then
          Solver.Linexpr.add acc
            (Solver.Linexpr.scale (P.below rng 7 - 3) (Solver.Linexpr.sym s))
        else acc)
      e syms
  in
  let atom () =
    let a = lin () and b = lin () in
    match P.below rng 6 with
    | 0 -> Solver.Constr.le a b
    | 1 -> Solver.Constr.lt a b
    | 2 -> Solver.Constr.ge a b
    | 3 -> Solver.Constr.gt a b
    | 4 -> Solver.Constr.eq a b
    | _ -> Solver.Constr.ne a b
  in
  let rec constr depth =
    if depth <= 0 then atom ()
    else
      match P.below rng 4 with
      | 0 -> Solver.Constr.conj [ constr (depth - 1); constr (depth - 1) ]
      | 1 -> Solver.Constr.disj [ constr (depth - 1); constr (depth - 1) ]
      | 2 -> Solver.Constr.not_ (constr (depth - 1))
      | _ -> atom ()
  in
  List.init 24 (fun _ -> List.init (1 + P.below rng 4) (fun _ -> constr (P.below rng 2)))

let cache_equivalence ?(check_cached = fun cs -> Solver.Cache.check cs) () =
  let name = "cache_equivalence" in
  let run ~seed =
    let rng = P.create ~seed in
    let sets = gen_constraint_sets rng in
    (* ground truth: the raw solver, no cache in the loop *)
    let baseline = List.map (fun cs -> verdict_kind (Solver.Solve.check cs)) sets in
    let mismatches capacity =
      Solver.Cache.reset ();
      Solver.Cache.set_capacity capacity;
      (* two sweeps: the second answers from cache (or, starved, from
         re-solves after eviction churn) *)
      let sweep pass_idx =
        List.concat
          (List.mapi
             (fun i cs ->
               let got = verdict_kind (check_cached cs) in
               let want = List.nth baseline i in
               if String.equal got want then []
               else [ (pass_idx, i, want, got) ])
             sets)
      in
      sweep 1 @ sweep 2
    in
    let restore () =
      Solver.Cache.set_capacity Solver.Cache.default_capacity;
      Solver.Cache.reset ()
    in
    Fun.protect ~finally:restore @@ fun () ->
    let full = mismatches Solver.Cache.default_capacity in
    let starved = mismatches 2 in
    match full @ starved with
    | [] -> Pass
    | (pass_idx, i, want, got) :: _ ->
        let regime = if full <> [] then "enabled" else "capacity-starved" in
        let capacity =
          if full <> [] then Solver.Cache.default_capacity else 2
        in
        let bad_set = List.nth sets i in
        (* shrink the constraint set that disagreed *)
        let still_fails cs =
          Solver.Cache.reset ();
          Solver.Cache.set_capacity capacity;
          let want = verdict_kind (Solver.Solve.check cs) in
          let (_ : string) = verdict_kind (check_cached cs) in
          not (String.equal (verdict_kind (check_cached cs)) want)
        in
        let shrunk, _ =
          Shrink.minimize ~max_evals:200 ~still_fails
            ~candidates:Shrink.list bad_set
        in
        fail name seed
          "cache (%s) disagrees with direct solve on set %d, sweep %d: \
           want %s, got %s@.shrunk constraint set (%d conjuncts):@.%a"
          regime i pass_idx want got (List.length shrunk)
          (Format.pp_print_list Solver.Constr.pp)
          shrunk
  in
  { name; run }

(* ---- Oracle 3: obs neutrality ---------------------------------------- *)

let real_analyze ~config program = Bolt.Pipeline.analyze ~config program

let obs_neutrality ?(analyze = real_analyze) () =
  let name = "obs_neutrality" in
  let run ~seed =
    let rng = P.create ~seed in
    let subject = pick_subject rng in
    let program = subject_program subject in
    let base = subject_config subject in
    let was = Obs.enabled () in
    Fun.protect
      ~finally:(fun () -> if not was then Obs.disable ())
    @@ fun () ->
    Obs.disable ();
    let off =
      fingerprint
        (analyze ~config:(Bolt.Pipeline.Config.with_obs false base) program)
    in
    let on =
      fingerprint
        (analyze ~config:(Bolt.Pipeline.Config.with_obs true base) program)
    in
    if String.equal off on then Pass
    else
      fail name seed "%s: tracing changed analysis output@.%s"
        (subject_name subject) (first_diff off on)
  in
  { name; run }

(* ---- Oracle 4: concrete/symbex agreement ------------------------------ *)

let real_explore ~concrete ~models program =
  Symbex.Engine.explore ~concrete ~models program

(* Both execution modes are instances of the same [Ir.Eval] walker, so
   on a fully-concrete input they must tell exactly the same story:
   symbex folds every branch and leaves one feasible path (or none,
   when the interpreter is stuck), and replaying that path's assumed
   decisions reproduces the direct run's outcome, IC and MA.  Subjects
   are generated programs only: they are stateless, so production
   execution needs no data structures and the agreement is exact. *)
let concrete_symbex_agreement ?(explore = real_explore) () =
  let name = "concrete_symbex_agreement" in
  let run ~seed =
    let rng = P.create ~seed in
    let program = Gen_ir.program rng in
    let packet = Gen_net.packet rng in
    let in_port = P.below rng 8 in
    let now = 1000 + P.below rng 100_000 in
    let context ppf () =
      Format.fprintf ppf "packet: %s (in_port %d, now %d)@.%a"
        (Bolt.Report.witness_line packet)
        in_port now Ir.Program.pp program
    in
    let direct () =
      let meter = Exec.Meter.create (Hw.Model.null ()) in
      Exec.Interp.run ~meter ~mode:(Exec.Interp.Production []) ~in_port ~now
        program (Net.Packet.copy packet)
    in
    let result =
      explore ~concrete:(packet, in_port, now) ~models:Bolt.Ds_models.default
        program
    in
    let paths = result.Symbex.Engine.paths in
    match direct () with
    | exception Exec.Interp.Stuck msg -> (
        match paths with
        | [] -> Pass
        | _ ->
            fail name seed
              "%s: interpreter stuck (%s) but symbex found %d feasible \
               path(s) on a concrete input@.%a"
              program.Ir.Program.name msg (List.length paths) context ())
    | direct -> (
        match paths with
        | [ path ] -> (
            if
              not
                (Bolt.Pipeline.replay_matches path.Symbex.Path.action
                   direct.Exec.Interp.outcome)
            then
              fail name seed
                "%s: symbex action %a disagrees with the interpreter's \
                 outcome@.%a"
                program.Ir.Program.name Symbex.Path.pp path context ()
            else
              let meter = Exec.Meter.create (Hw.Model.null ()) in
              match
                Exec.Replay.run ~meter ~stubs:[]
                  ~path_id:path.Symbex.Path.id
                  ~decisions:path.Symbex.Path.decisions
                  ~loops:
                    (List.map
                       (fun (l : Symbex.Path.pcv_loop) -> l.Symbex.Path.name)
                       path.Symbex.Path.loops)
                  ~in_port ~now program (Net.Packet.copy packet)
              with
              | replay ->
                  if
                    replay.Exec.Interp.ic = direct.Exec.Interp.ic
                    && replay.Exec.Interp.ma = direct.Exec.Interp.ma
                  then Pass
                  else
                    fail name seed
                      "%s: replayed path costs IC %d / MA %d, direct run \
                       costs IC %d / MA %d@.%a"
                      program.Ir.Program.name replay.Exec.Interp.ic
                      replay.Exec.Interp.ma direct.Exec.Interp.ic
                      direct.Exec.Interp.ma context ()
              | exception Exec.Replay.Divergence msg ->
                  fail name seed
                    "%s: the single feasible path does not replay on its \
                     own concrete input (%s)@.%a"
                    program.Ir.Program.name msg context ()
              | exception Exec.Interp.Stuck msg ->
                  fail name seed
                    "%s: replay stuck (%s) where the direct run was not@.%a"
                    program.Ir.Program.name msg context ())
        | paths ->
            fail name seed
              "%s: expected exactly one feasible path on a concrete input, \
               got %d@.%a"
              program.Ir.Program.name (List.length paths) context ())
  in
  { name; run }

(* The specialized production engine and the interpreter are two
   implementations of one concrete semantics.  On any subject and any
   stream, the program is bound to the stream's frozen configuration
   ({!Exec.Specialize.bind}) and replayed on an untraced meter (tracing
   would force the fallback and leave the fast body unexercised) against
   the interpreter, comparing outcome, costs, observations and packet
   bytes per packet — Stuck packets compare by message, which is exactly
   the charge-equivalence contract of DESIGN §12.  A second leg repeats
   this on the coupled recording model, whose access log pins the
   instruction count at every access.  For stateless generated subjects
   a final leg cross-checks the fidelity replay: symbex on the concrete
   input yields one path, and replaying its assumed decisions must
   reproduce the specialized run's IC/MA exactly. *)
let specialized_interp_agreement ?(specialize = Exec.Specialize.bind) () =
  let name = "specialized_interp_agreement" in
  let run ~seed =
    let rng = P.create ~seed in
    let subject = pick_subject rng in
    let program = subject_program subject in
    let packets = 20 + P.below rng 40 in
    let stream =
      match subject with
      | Registry e -> Gen_net.stream_for rng ~nf:e.Nf.Registry.name ~packets
      | Generated _ ->
          List.init packets (fun i ->
              Gen_net.entry rng ~now:(1000 + (i * 100)) (Gen_net.packet rng))
    in
    let fresh_dss () =
      match subject with
      | Registry e -> e.Nf.Registry.setup (Dslib.Layout.allocator ())
      | Generated _ -> []
    in
    (* the [coupled] leg runs on the recording model: the order in which
       a coupled body lands its charges, across the loops, rejoining arms
       and loads inside operands that generated programs are full of *)
    let replay ~coupled engine =
      let recorder = Recording.create () in
      let meter =
        Exec.Meter.create
          (if coupled then Recording.model recorder else Hw.Model.null ())
      in
      let mode = Exec.Interp.Production (fresh_dss ()) in
      let exec =
        match engine with
        | `Interp ->
            fun ~in_port ~now packet ->
              Exec.Interp.run ~meter ~mode ~in_port ~now program packet
        | `Specialized ->
            let sp = specialize program ~meter ~mode in
            fun ~in_port ~now packet ->
              Exec.Specialize.run sp ~in_port ~now packet
      in
      List.map
        (fun { Workload.Stream.packet; now; in_port } ->
          let packet = Net.Packet.copy packet in
          Exec.Meter.reset_observations meter;
          let outcome =
            match exec ~in_port ~now packet with
            | r -> Ok r
            | exception Exec.Interp.Stuck msg -> Error msg
          in
          (* a Stuck packet's accesses are outside the
             charge-equivalence contract, like its costs *)
          let log = Recording.take recorder in
          ( outcome,
            Exec.Meter.observations meter,
            Net.Packet.to_bytes packet,
            match outcome with Ok _ -> log | Error _ -> [] ))
        stream
    in
    let divergence ~coupled =
      let interp = replay ~coupled `Interp
      and spec = replay ~coupled `Specialized in
      List.find_index (fun (a, b) -> a <> b) (List.combine interp spec)
      |> Option.map (fun i -> (i, List.nth interp i, List.nth spec i))
    in
    let pp_side ppf (outcome, obs, _bytes, log) =
      (match outcome with
      | Ok (r : Exec.Interp.run) ->
          Format.fprintf ppf "ic %d ma %d cycles %d" r.Exec.Interp.ic
            r.Exec.Interp.ma r.Exec.Interp.cycles
      | Error msg -> Format.fprintf ppf "stuck: %s" msg);
      Format.fprintf ppf ", %d observation(s)" (List.length obs);
      if log <> [] then
        Format.fprintf ppf ", accesses [%a]"
          Fmt.(list ~sep:(any "; ") Recording.pp_access)
          log
    in
    match
      match divergence ~coupled:false with
      | Some d -> Some ("", d)
      | None ->
          Option.map
            (fun d -> (" on a coupled model", d))
            (divergence ~coupled:true)
    with
    | Some (where, (i, a, b)) ->
        fail name seed
          "%s: specialized execution diverges from the interpreter%s at \
           packet %d@.interp:      %a@.specialized: %a"
          (subject_name subject) where i pp_side a pp_side b
    | None -> (
        match (subject, stream) with
        | Generated _, { Workload.Stream.packet; now; in_port } :: _ -> (
            (* third leg: fidelity replay of the symbex path against the
               specialized run of the same input *)
            let direct_run =
              let meter = Exec.Meter.create (Hw.Model.null ()) in
              let sp =
                specialize program ~meter ~mode:(Exec.Interp.Production [])
              in
              match
                Exec.Specialize.run sp ~in_port ~now (Net.Packet.copy packet)
              with
              | r -> Some r
              | exception Exec.Interp.Stuck _ -> None
            in
            let result =
              Symbex.Engine.explore ~concrete:(packet, in_port, now)
                ~models:Bolt.Ds_models.default program
            in
            match (direct_run, result.Symbex.Engine.paths) with
            | Some direct, [ path ] -> (
                let meter = Exec.Meter.create (Hw.Model.null ()) in
                match
                  Exec.Replay.run ~meter ~stubs:[]
                    ~path_id:path.Symbex.Path.id
                    ~decisions:path.Symbex.Path.decisions
                    ~loops:
                      (List.map
                         (fun (l : Symbex.Path.pcv_loop) -> l.Symbex.Path.name)
                         path.Symbex.Path.loops)
                    ~in_port ~now program (Net.Packet.copy packet)
                with
                | replay ->
                    if
                      replay.Exec.Interp.ic = direct.Exec.Interp.ic
                      && replay.Exec.Interp.ma = direct.Exec.Interp.ma
                    then Pass
                    else
                      fail name seed
                        "%s: fidelity replay costs IC %d / MA %d, \
                         specialized run costs IC %d / MA %d"
                        (subject_name subject) replay.Exec.Interp.ic
                        replay.Exec.Interp.ma direct.Exec.Interp.ic
                        direct.Exec.Interp.ma
                | exception Exec.Replay.Divergence msg ->
                    fail name seed
                      "%s: specialized-agreeing path does not replay (%s)"
                      (subject_name subject) msg
                | exception Exec.Interp.Stuck msg ->
                    fail name seed
                      "%s: fidelity replay stuck (%s) where the specialized \
                       run was not"
                      (subject_name subject) msg)
            | _ ->
                (* stuck input or multi-path disagreements belong to
                   [concrete_symbex_agreement]; both engines already
                   agreed above *)
                Pass)
        | _ -> Pass)
  in
  { name; run }

(* ---- Stateful oracles (model-based PBT, DESIGN §14) ------------------- *)

(* Replay a case's command list, turning any escaped exception into a
   double failure — shrinking must never crash the campaign. *)
let run_case (case : Stateful.t) hooks cmds =
  try case.Stateful.run hooks cmds
  with e ->
    let msg = "exception: " ^ Printexc.to_string e in
    { Stateful.model_error = Some msg; bounds_error = Some msg }

(* Shrink a failing command list to a minimal one that still fails the
   [select]ed property, then re-run it for the final detail. *)
let shrunk_failure name seed (case : Stateful.t) hooks ~select cmds =
  let still_fails cs = select (run_case case hooks cs) <> None in
  let cmds, _ =
    Shrink.minimize ~still_fails
      ~candidates:(Shrink.sequence ~shrink_cmd:Stateful.shrink_cmd)
      cmds
  in
  let detail =
    Option.value
      (select (run_case case hooks cmds))
      ~default:"(failure did not reproduce after shrinking)"
  in
  fail name seed "%s@\nshrunk trace (%d commands):@\n%a" detail
    (List.length cmds) Stateful.pp_trace cmds

let stateful_oracle ~suffix ~select hooks (case : Stateful.t) =
  let name = "stateful_" ^ case.Stateful.name ^ "_" ^ suffix in
  let run ~seed =
    let rng = P.create ~seed in
    let cmds = case.Stateful.gen rng in
    match select (run_case case hooks cmds) with
    | None -> Pass
    | Some _ -> shrunk_failure name seed case hooks ~select cmds
  in
  { name; run }

let stateful_model ?tamper case =
  let hooks =
    match tamper with
    | None -> Stateful.no_hooks
    | Some tamper -> { Stateful.no_hooks with tamper }
  in
  stateful_oracle ~suffix:"model"
    ~select:(fun o -> o.Stateful.model_error)
    hooks case

let stateful_bounds ?weaken case =
  let hooks =
    match weaken with
    | None -> Stateful.no_hooks
    | Some weaken -> { Stateful.no_hooks with weaken }
  in
  stateful_oracle ~suffix:"bounds"
    ~select:(fun o -> o.Stateful.bounds_error)
    hooks case

let stateful () =
  List.concat_map
    (fun case -> [ stateful_model case; stateful_bounds case ])
    (Stateful.all ())

let stateful_names () = List.map (fun o -> o.name) (stateful ())

(* ---- Registry -------------------------------------------------------- *)

let all () =
  [
    conservativeness ();
    cache_equivalence ();
    obs_neutrality ();
    concrete_symbex_agreement ();
    specialized_interp_agreement ();
  ]

let names () = List.map (fun o -> o.name) (all ())

let find name =
  match
    List.find_opt
      (fun o -> String.equal o.name name)
      (all () @ stateful ())
  with
  | Some o -> o
  | None ->
      invalid_arg
        (Printf.sprintf "unknown oracle %S (try: %s)" name
           (String.concat ", " (names ())))
