.PHONY: all build test test-one-core lint bench bench-quick bench-pipeline bench-smoke soak-smoke scale-smoke fuzz-smoke fuzz-stateful-smoke tune-smoke tune-parity topo-smoke topo-parity examples doc clean

all: build

build:
	dune build @all

test:
	dune runtest

# Tier-1 pinned to one CPU: the suite must stay deterministically green
# on a single core, whatever the host reports.
test-one-core:
	taskset -c 0 dune runtest --force

# What the CI lint job runs: formatting (a no-op without ocamlformat
# installed), a warning-clean build of everything (dune emits nothing when clean), the
# build-flags guard, the single-walker guard — the only IR traversal lives in lib/ir —
# the one-scale-driver guard over the front-ends, the one-domain guard that keeps
# Exec.Pool out of contract, tuner and topology analysis, and the witness guard
# that keeps whole-set Solve.check out of lib/bolt and lib/topo.
DEV_FLAGS := -w @1..3@5..28@30..39@43@46..47@49..57@61..62-40 -strict-sequence -strict-formats -short-paths -keep-locs
HASH_MAP_CMX := _build/default/lib/dslib/.dslib.objs/native/dslib__Hash_map.cmx

lint:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  ocamlformat --check $$(find lib bin test bench examples -name '*.ml' -o -name '*.mli'); \
	else \
	  echo "ocamlformat not installed; skipping format check"; \
	fi
	@out=$$(dune build @all 2>&1); \
	if [ -n "$$out" ]; then echo "$$out"; echo "lint: dune build emitted warnings"; exit 1; fi
	@flags=$$(dune printenv . | tr -s ' \n' '  ' | sed -n 's/.*(flags (\([^)]*\))).*/\1/p'); \
	if [ "$$flags" != "$(DEV_FLAGS)" ]; then \
	  echo "lint: the default profile must compile with dev's flags, every"; \
	  echo "      warning an error (pin them in the root dune's env stanza):"; \
	  echo "      want: $(DEV_FLAGS)"; echo "      got:  $$flags"; exit 1; \
	fi
	@if ! dune rules $(HASH_MAP_CMX) | grep -qxE ' *-inline'; then \
	  echo "lint: library modules must compile with the raised -inline budget"; \
	  echo "      (dune rules $(HASH_MAP_CMX))"; exit 1; \
	fi
	@hits=$$(dune rules -r @all | grep -xE ' *-(opaque|unsafe|noassert|O3)' | sort | uniq -c); \
	if [ -n "$$hits" ]; then \
	  echo "lint: the default build must inline across modules and keep bounds"; \
	  echo "      checks and assertions (no -opaque: select the release profile"; \
	  echo "      in dune-workspace; never -unsafe, -noassert or -O3):"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -rn "exec_stmt" lib bin test bench examples \
	  --include='*.ml' --include='*.mli' | grep -v '^lib/ir/' || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: IR walker duplicated outside lib/ir:"; echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -rnE "(Oracle\.(conntrack|nat)_affinity|Scale\.run)\b" bin bench \
	  --include='*.ml' || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: bolt scale and bench scale must go through the one scale"; \
	  echo "      driver (Dataplane.Scale.run_suite), not run the NFs, the"; \
	  echo "      affinity oracles or the gates themselves:"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -rnw "Pool" lib/bolt lib/tuner lib/topo bin \
	  --include='*.ml' --include='*.mli' || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: contract, tuner and topology analysis run on the calling"; \
	  echo "      domain; keep Exec.Pool out of lib/bolt, lib/tuner, lib/topo"; \
	  echo "      and bin/ (domains are for whole measurements: Scenarios):"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -rn "Interp\.run" lib/distiller lib/tuner lib/topo \
	  lib/dataplane --include='*.ml' || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: Distiller, tuner, topo and dataplane per-packet paths must"; \
	  echo "      stay on the specialized engine (Exec.Specialize), off the"; \
	  echo "      interpreter (Interp.run, Interp.run_batch):"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -n "Ds\.find\|\.Ds\.call\|Meter\.instr" lib/exec/specialize.ml || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: specialized fast bodies must stay off the generic Ds dispatch"; \
	  echo "      and per-event meter charges (use fast paths and batched charging):"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -nE "(with|exception) +_ *->" lib/exec/specialize.ml || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: specialized bodies must not catch every exception (that"; \
	  echo "      swallows Stack_overflow and Out_of_memory); name the one"; \
	  echo "      you handle:"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -nE "Hashtbl\.(create|mem|replace|find|add|remove)" \
	  lib/hw/cache.ml lib/hw/realistic.ml || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: the cache simulator runs on every simulated access and"; \
	  echo "      must not hash generically (polymorphic Hashtbl); use an"; \
	  echo "      int-keyed Hashtbl.Make:"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -nE "IM\.|Linexpr\.(sub|range)|Hashtbl\." lib/solver/solve.ml || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: the solver kernel runs on every search node and must stay on"; \
	  echo "      its compiled int rows and int-array store (no map store, no"; \
	  echo "      per-term Linexpr rebuilds, no polymorphic Hashtbl):"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -rnE "eval_exn|Cost_vec\.eval|Perf_expr\.eval" lib/topo/harness.ml \
	  lib/experiments/validate.ml lib/tuner --include='*.ml' --include='*.mli' || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: Topo.Harness.check, Experiments.Validate and the tuner check"; \
	  echo "      every packet against a contract through Perf.Bound (compiled"; \
	  echo "      once, int arrays over PCV slots), not by re-evaluating"; \
	  echo "      Perf_expr over binding lists:"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -rn "Interp\.run\|Ds\.find\|\.Ds\.call" lib/dataplane --include='*.ml' || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: the sharded dataplane's per-packet paths must stay on the"; \
	  echo "      specialized engine (Exec.Specialize), never the interpreter"; \
	  echo "      or the generic Ds dispatch:"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -rn "Solve\.check" lib/bolt lib/topo --include='*.ml' || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: path and route witnesses are solved one independent"; \
	  echo "      component at a time (Solver.Cache.witness), never by"; \
	  echo "      Solve.check on the whole set:"; \
	  echo "$$hits"; exit 1; \
	fi
	@hits=$$(grep -rnE "~trace:true|Exec\.Meter\.events" lib/bolt lib/topo --include='*.ml' || true); \
	if [ -n "$$hits" ]; then \
	  echo "lint: a witness is priced inside the replay that runs it (the"; \
	  echo "      meter's marker hook), never by recording the replay's events"; \
	  echo "      and walking them again:"; \
	  echo "$$hits"; exit 1; \
	fi

# Regenerate every table and figure of the paper (plus extensions).
bench:
	dune exec bench/main.exe

bench-quick:
	dune exec bench/main.exe -- --quick

# Regenerate the tracked BENCH_pipeline.json: figure1_table3 timed at
# each jobs level, with the jobs:1 / jobs:N determinism cross-check and
# the solver-cache hit and miss counts.
bench-pipeline:
	dune exec bench/main.exe -- speedup --json BENCH_pipeline.json

# CI smoke: quick workloads through the parallel pipeline, with the
# jobs:1 / jobs:N determinism cross-check, solver-cache stats and a
# Chrome trace of the run (open bench_trace.json in Perfetto), then the
# interpreted vs config-specialized throughput comparison (JSON
# artifact).  The throughput run replays the specialized engine
# against the interpreter before timing anything and exits non-zero on
# any divergence, so this target doubles as a specialization parity
# gate.
bench-smoke:
	dune exec bench/main.exe -- speedup --quick --jobs 2 --trace bench_trace.json
	dune exec bench/main.exe -- throughput --quick --json BENCH_throughput.json

# CI smoke for the soak benchmark: six traffic classes (uniform, Zipf,
# heavy-tailed bursts, flow churn, a NAT hash-collision flood and an
# LPM tbl8 prefix attack) through the specialized engine, each class
# also replayed against its contract for soundness.  The JSON artifact
# records per-class pps + soundness and the collision-vs-uniform
# slowdown; the full (non-quick) run regenerates the tracked
# BENCH_soak.json with million-flow churn.
soak-smoke:
	dune exec bench/main.exe -- soak --quick --json BENCH_soak_smoke.json

# CI smoke for the sharded dataplane's scalability contract: firewall,
# NAT and maglev at 1/2/4 shards, each level gated on bit-level replay
# parity (parallel == serial, shards-N == shards-1) and the two
# dispatcher-affinity oracles; the multicore speedup and
# prediction-error gates arm themselves only when
# Domain.recommended_domain_count >= 2, so the target is safe on the
# 1-core CI runner (the artifact's provenance block records what ran
# where).  The full (non-quick) run regenerates the tracked
# BENCH_scale.json.
scale-smoke:
	dune exec bench/main.exe -- scale --quick --json BENCH_scale_smoke.json

# CI smoke for the soundness fuzzer's stateful mode: deterministic
# command-sequence campaigns over every dslib structure, each checked
# against its purely-functional model and its per-command contract
# bounds (see docs/TESTING.md).  Failures shrink and print a replayable
# trace.
fuzz-stateful-smoke:
	dune exec bin/bolt_cli.exe -- fuzz --stateful --seed 1 --runs 8 --json fuzz_stateful_smoke.json

# CI smoke for the autotuner: a small router grid (two LPM backends x
# three route-table sizes) priced analytically, winner validated by
# specialized replay; the JSON artifact carries the Pareto front and the
# predicted-vs-measured error.
tune-smoke:
	dune exec bin/bolt_cli.exe -- tune trie_router --packets 128 --json BENCH_tuner.json

# Parity gate for the autotuner: the tune-smoke run must reproduce the
# committed BENCH_tuner.json exactly, its provenance block (host, time)
# aside — predicted percentiles, measured percentiles and the soundness
# verdict included.  Writes to a temporary directory, never over the
# tracked file.  Needs jq.
tune-parity:
	@dir=$$(mktemp -d); \
	dune exec bin/bolt_cli.exe -- tune trie_router --packets 128 \
	  --json $$dir/tune.json \
	  && jq 'del(.provenance)' BENCH_tuner.json > $$dir/want.json \
	  && jq 'del(.provenance)' $$dir/tune.json > $$dir/got.json \
	  && diff -u $$dir/want.json $$dir/got.json; \
	rc=$$?; rm -rf $$dir; \
	if [ $$rc -ne 0 ]; then \
	  echo "tune-parity: bolt tune no longer reproduces BENCH_tuner.json"; \
	fi; \
	exit $$rc

# CI smoke for the network-wide contract engine: every built-in
# topology jointly analysed (route-tuple pruning on), the composed
# end-to-end bound compared against naive per-NF addition (must never
# be looser, and must be strictly tighter somewhere — the Figure 3
# property network-wide), and the built-in workload replayed through
# the specialized per-node harness with every packet checked against
# the bound.  Exits non-zero if any property fails; the full
# (non-quick) run regenerates the tracked BENCH_topo.json.
topo-smoke:
	dune exec bench/main.exe -- topo --quick --json BENCH_topo_smoke.json

# Parity gate for the network-wide contract engine: the full `bench topo`
# run must reproduce the committed BENCH_topo.json exactly, its
# provenance block (host, time) aside.  Needs jq.
topo-parity:
	@dir=$$(mktemp -d); \
	dune exec bench/main.exe -- topo --json $$dir/topo.json \
	  && jq 'del(.provenance)' BENCH_topo.json > $$dir/want.json \
	  && jq 'del(.provenance)' $$dir/topo.json > $$dir/got.json \
	  && diff -u $$dir/want.json $$dir/got.json; \
	rc=$$?; rm -rf $$dir; \
	if [ $$rc -ne 0 ]; then \
	  echo "topo-parity: bench topo no longer reproduces BENCH_topo.json"; \
	fi; \
	exit $$rc

# CI smoke for the soundness fuzzer: a few deterministic rounds of all
# six differential oracles (see docs/TESTING.md).  Exits non-zero on a
# counterexample and writes the machine-readable outcome next to it.
fuzz-smoke:
	dune exec bin/bolt_cli.exe -- fuzz --seed 1 --runs 8 --json fuzz_smoke.json

# Dump the curve figures as CSV next to the textual tables.
bench-csv:
	dune exec bench/main.exe -- --csv _figures

examples:
	dune exec examples/quickstart.exe
	dune exec examples/operator_defence.exe
	dune exec examples/developer_debugging.exe
	dune exec examples/allocator_choice.exe
	dune exec examples/chain_composition.exe
	dune exec examples/ci_workflow.exe

clean:
	dune clean
