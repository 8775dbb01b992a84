(* Tests for the value-level spec API and the contract-guided autotuner:
   spec/registry equivalence (typed frozen knobs must render exactly the
   historic string lists), Pareto-dominance properties, and winner
   prediction-vs-replay agreement with an explicit error bound. *)

module Spec = Nf.Spec
module Tune = Tuner.Tune
module Pareto = Tuner.Pareto
module Space = Tuner.Space

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let check_strings msg expected got =
  Alcotest.(check (list (pair string string))) msg expected got

(* ---- spec / registry equivalence ---------------------------------------- *)

(* The typed frozen knobs must render byte-identically to the stringly
   lists the registry used to carry, so printers and the specialize gate
   see no difference. *)
let test_frozen_to_strings () =
  let frozen name =
    match Spec.frozen_knobs (Spec.of_name name) with
    | Some ks -> Spec.to_strings ks
    | None -> Alcotest.failf "%s lost its frozen knobs" name
  in
  check_strings "bridge"
    [
      ("capacity", "4096");
      ("buckets", "4096");
      ("timeout", "300000000");
      ("threshold", "6");
      ("seed", "42");
    ]
    (frozen "bridge");
  check_strings "nat"
    [
      ("capacity", "4096");
      ("buckets", "4096");
      ("timeout", "10000000");
      ("ports", "1024-9215");
      ("allocator", "dll");
    ]
    (frozen "nat");
  check_strings "firewall" [ ("ruleset", "builtin") ] (frozen "firewall");
  check_strings "static_router" [ ("fib", "builtin") ] (frozen "static_router");
  (* ... and the registry entries carry exactly those knobs. *)
  List.iter
    (fun name ->
      let e = Nf.Registry.find name in
      match e.Nf.Registry.frozen with
      | Some f ->
          check_strings (name ^ " entry") (frozen name)
            (Spec.to_strings f.Nf.Registry.knobs)
      | None -> Alcotest.failf "%s entry lost its frozen descriptor" name)
    [ "bridge"; "nat"; "firewall"; "static_router" ];
  List.iter
    (fun name ->
      check_bool (name ^ " stays unfrozen") true
        ((Nf.Registry.find name).Nf.Registry.frozen = None))
    [ "maglev"; "lpm_router"; "trie_router"; "conntrack" ]

let test_defaults_cover_registry () =
  let names = List.map Spec.name (Spec.defaults ()) in
  Alcotest.(check (list string)) "same names, same order"
    (Nf.Registry.names ()) names;
  (* of_name round-trips every registry name. *)
  List.iter
    (fun n -> check_string "round-trip" n (Spec.name (Spec.of_name n)))
    names;
  (match Spec.of_name "no_such_nf" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown name accepted");
  (* every entry is derived from its spec *)
  List.iter
    (fun e ->
      check_string "entry spec name" e.Nf.Registry.name
        (Spec.name e.Nf.Registry.spec))
    (Nf.Registry.all ())

let test_apply () =
  let b = Spec.of_name "bridge" in
  let b' = Spec.apply b (Spec.Capacity 512) in
  check_bool "capacity updated" true
    (List.mem ("capacity", "512") (Spec.to_strings (Spec.knobs b')));
  check_bool "buckets untouched" true
    (List.mem ("buckets", "4096") (Spec.to_strings (Spec.knobs b')));
  (match Spec.apply b (Spec.Lpm_backend `Trie) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bridge accepted an LPM backend");
  (match Spec.apply (Spec.of_name "responder") (Spec.Capacity 8) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "stateless NF accepted a capacity");
  let r = Spec.apply (Spec.of_name "lpm_router") (Spec.Lpm_backend `Trie) in
  check_string "router backend swap renames" "trie_router" (Spec.name r)

let test_footprints () =
  check_int "responder is stateless" 0
    (Spec.footprint_bytes (Spec.of_name "responder"));
  let grow name =
    let s = Spec.of_name name in
    Spec.footprint_bytes (Spec.apply s (Spec.Capacity 8192))
    > Spec.footprint_bytes s
  in
  List.iter
    (fun n -> check_bool (n ^ " grows with capacity") true (grow n))
    [ "bridge"; "nat"; "conntrack" ];
  (* the dir-24-8 tier-1 table dominates any trie of the same routes *)
  let routes = Space.synthetic_routes 64 in
  let dir = Spec.Router { Spec.backend = `Dir24_8; routes } in
  let trie = Spec.Router { Spec.backend = `Trie; routes } in
  check_bool "dir24_8 outweighs trie" true
    (Spec.footprint_bytes dir > Spec.footprint_bytes trie)

(* ---- grid / routes ------------------------------------------------------- *)

let test_synthetic_routes_prefix_closed () =
  let small = Space.synthetic_routes 8 in
  let large = Space.synthetic_routes 32 in
  check_int "sizes" 8 (List.length small);
  check_int "sizes" 32 (List.length large);
  List.iteri
    (fun i r ->
      check_bool "prefix-closed" true (r = List.nth large i))
    small;
  List.iter
    (fun (_, len, port) ->
      check_bool "tiered lengths" true (len = 16 || len = 28);
      check_bool "port in range" true (port >= 1))
    large

let test_grid_enumeration () =
  let grid =
    Space.grid ~nf:"nat" ~backends:[ "dll"; "array" ]
      ~capacities:[ 64; 128 ] ()
  in
  check_int "cartesian size" 4 (List.length grid);
  Alcotest.(check (list string)) "backends outer, capacities inner"
    [ "dll"; "dll"; "array"; "array" ]
    (List.map Space.backend_of grid);
  let contains hay needle =
    let h = String.length hay and n = String.length needle in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  match Space.backends ~nf:"responder" with
  | exception Invalid_argument msg ->
      check_bool "error names the tunable NFs" true
        (List.for_all (contains msg) Space.tunable)
  | _ -> Alcotest.fail "responder has no tuning axis"

(* ---- Pareto -------------------------------------------------------------- *)

let test_pareto_front () =
  let o p50 p99 mem = { Pareto.p50; p99; mem } in
  check_bool "strict dominance" true
    (Pareto.dominates (o 1 2 3) (o 1 2 4));
  check_bool "irreflexive" false (Pareto.dominates (o 1 2 3) (o 1 2 3));
  check_bool "incomparable" false (Pareto.dominates (o 1 9 3) (o 2 2 3));
  let pts =
    [ ("a", o 10 20 100); ("b", o 5 25 100); ("c", o 10 20 99); ("d", o 11 21 101) ]
  in
  Alcotest.(check (list string)) "front keeps input order"
    [ "b"; "c" ]
    (List.map fst (Pareto.front pts))

(* ---- tuner runs ---------------------------------------------------------- *)

(* Small grids keep these runs quick; the harvest/pipeline work is
   per-backend, not per-point, so capacity lists can stay short. *)
let router_run () =
  Tune.run ~nf:"trie_router" ~capacities:[ 16; 64 ] ~packets:64 ()

let test_front_is_nondominated () =
  let check_result r =
    let os = List.map (fun p -> (p.Tune.index, Tune.objectives p)) r.Tune.points in
    check_bool "front non-empty" true (r.Tune.front <> []);
    List.iter
      (fun p ->
        let mine = Tune.objectives p in
        List.iter
          (fun (i, o) ->
            if i <> p.Tune.index then
              check_bool "no emitted point is dominated" false
                (p.Tune.on_front && Pareto.dominates o mine))
          os)
      r.Tune.points;
    (* the winner sits on the front *)
    check_bool "winner on front" true r.Tune.winner.Tune.on_front
  in
  let r = router_run () in
  check_result r;
  check_result (Tune.run ~nf:"nat" ~capacities:[ 64; 256 ] ~packets:64 ());
  let render r = Perf.Json.to_string ~indent:true (Tune.to_json r) in
  check_string "identical reruns" (render r) (render (router_run ()))

let test_winner_agreement () =
  let r = router_run () in
  let v = r.Tune.validation in
  (* Soundness: every replayed packet stayed under the contract at its
     own observed PCVs. *)
  check_bool "winner replay sound" true v.Tune.sound;
  check_int "replayed the whole stream" 64 v.Tune.packets;
  (* Agreement: predicted instruction percentiles over-approximate the
     measured ones (contracts are upper bounds) but on the router
     family the workload exercises the priced paths, so the
     overestimate stays within 50%. *)
  let within msg e =
    check_bool (msg ^ " >= 0") true (e >= 0);
    check_bool (msg ^ " <= 50") true (e <= 50)
  in
  within "p50 ic error" v.Tune.err_p50_ic_pct;
  within "p99 ic error" v.Tune.err_p99_ic_pct;
  (* cycle errors depend on the hardware model gap (null-model pricing
     vs realistic replay) and are only required to stay overestimates *)
  check_bool "cycles p99 overestimates" true (v.Tune.err_p99_cycles_pct >= 0)

let test_exposure_grows_with_capacity () =
  let r =
    Tune.run ~nf:"nat" ~backends:[ "dll" ] ~capacities:[ 64; 256 ] ~packets:32
      ()
  in
  match List.map (fun p -> p.Tune.exposure_ic) r.Tune.points with
  | [ Some small; Some big ] ->
      check_bool "adversarial bound grows with capacity" true (big > small)
  | _ -> Alcotest.fail "expected two bound points"

let suite =
  [
    Alcotest.test_case "frozen knobs render historically" `Quick
      test_frozen_to_strings;
    Alcotest.test_case "defaults cover the registry" `Quick
      test_defaults_cover_registry;
    Alcotest.test_case "knob apply" `Quick test_apply;
    Alcotest.test_case "footprint models" `Quick test_footprints;
    Alcotest.test_case "synthetic routes prefix-closed" `Quick
      test_synthetic_routes_prefix_closed;
    Alcotest.test_case "grid enumeration" `Quick test_grid_enumeration;
    Alcotest.test_case "pareto dominance and front" `Quick test_pareto_front;
    Alcotest.test_case "front is non-dominated" `Slow
      test_front_is_nondominated;
    Alcotest.test_case "winner prediction vs replay" `Slow
      test_winner_agreement;
    Alcotest.test_case "exposure grows with capacity" `Slow
      test_exposure_grows_with_capacity;
  ]
