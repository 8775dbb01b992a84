(* Program (or topology graph) in, contract out — as `bolt contract` and
   `bolt topo` derive them: cold solver cache, default pool width unless
   [jobs] says otherwise. *)

type target =
  | Nf of string * Nf.Registry.entry  (** expected-file stem, entry *)
  | Topo of Topo.Graph.t

let stem = function Nf (s, _) -> s | Topo g -> g.Topo.Graph.name

let expected_dir = "perfbench/expected"
let expected_path t = Filename.concat expected_dir (stem t ^ ".txt")

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

type derivation = {
  text : string;  (** the rendered contract *)
  worst : Perf.Cost_vec.t;
  paths : int;  (** explored paths (NFs; 0 for topologies) *)
  pruned : int;  (** infeasible forks pruned (NFs; 0 for topologies) *)
  topo : Topo.Analysis.t option;
}

let run ?jobs = function
  | Nf (_, (e : Nf.Registry.entry)) ->
      let config =
        Bolt.Pipeline.Config.(default |> with_contracts e.Nf.Registry.contracts)
      in
      let config =
        Option.fold ~none:config ~some:(fun j -> Bolt.Pipeline.Config.with_jobs j config) jobs
      in
      let t = Bolt.Pipeline.analyze ~config e.Nf.Registry.program
      in
      let c = Bolt.Pipeline.contract t ~classes:e.Nf.Registry.classes in
      let engine = t.Bolt.Pipeline.engine in
      {
        text = Fmt.str "%a" Perf.Contract.pp c;
        worst = Bolt.Pipeline.worst_case t;
        paths = List.length engine.Symbex.Engine.paths;
        pruned = engine.Symbex.Engine.infeasible_pruned;
        topo = None;
      }
  | Topo g ->
      let t = Measure.span "Topo.Analysis.run" (fun () -> Topo.Analysis.run g) in
      {
        text = Fmt.str "%a" Perf.Contract.pp (Topo.Analysis.contract t);
        worst = Topo.Analysis.worst t;
        paths = 0;
        pruned = 0;
        topo = Some t;
      }

(* Derivation statistics accumulated over a run. *)
type stats = {
  ms : Measure.Samples.t;  (** one sample per derivation *)
  per_target : (string, Measure.Samples.t) Hashtbl.t;  (** the same, by target *)
  mutable cache_hits : int;
  mutable cache_lookups : int;
}

let stats () =
  {
    ms = Measure.Samples.create ();
    per_target = Hashtbl.create 16;
    cache_hits = 0;
    cache_lookups = 0;
  }

(* Each target's derivations in the host's fast phases ({!Measure.Samples.fast_pool}
   over single derivations, its fastest [share]), pooled across targets. *)
let fast_ms ?share st =
  let pool = Measure.Samples.create () in
  Hashtbl.iter
    (fun _ s ->
      let f = Measure.Samples.fast_pool ?share s ~w:1 in
      for i = 0 to f.Measure.Samples.n - 1 do
        Measure.Samples.add pool f.Measure.Samples.a.(i)
      done)
    st.per_target;
  pool

(* One timed derivation from a cold solver cache; the rendered text is
   compared byte for byte with the expected file. *)
let timed ?jobs st checks ~expected target =
  Solver.Cache.reset ();
  let d, dt = Measure.timed (fun () -> run ?jobs target) in
  Measure.Samples.add st.ms (dt *. 1e3);
  (match Hashtbl.find_opt st.per_target (stem target) with
  | Some s -> Measure.Samples.add s (dt *. 1e3)
  | None -> Hashtbl.add st.per_target (stem target) (Measure.Samples.of_list [ dt *. 1e3 ]));
  let s = Solver.Cache.stats () in
  st.cache_hits <- st.cache_hits + s.Solver.Cache.hits;
  st.cache_lookups <- st.cache_lookups + s.Solver.Cache.hits + s.Solver.Cache.misses;
  Measure.check checks
    ~what:(Printf.sprintf "%s contract differs from %s" (stem target) (expected_path target))
    (String.equal d.text expected);
  d

(* Per-layer analysis metrics of the run's NF derivations, read from the
   spans the library itself opens inside [Bolt.Pipeline.analyze]
   (recorded in the traced run): [Symbex.Engine.explore], then per path
   [witness] ("solve"), [replay_witness] ("replay") and [analyze_replay]
   ("price").  Milliseconds per derivation; the per-path phases run on
   the analysis pool's domains, so theirs are summed over domains. *)
let phase_metrics () =
  let _, derivations = Measure.span_total "analyze" in
  let per name =
    let us, _ = Measure.span_total ~within:"analyze" name in
    float_of_int us /. 1e3 /. float_of_int (max 1 derivations)
  in
  [
    ("explore_ms", per "explore");
    ("solve_ms", per "solve");
    ("replay_ms", per "replay");
    ("price_ms", per "price");
  ]

let hit_frac st =
  if st.cache_lookups = 0 then 0.
  else float_of_int st.cache_hits /. float_of_int st.cache_lookups
