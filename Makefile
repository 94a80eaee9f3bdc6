# Convenience targets; everything is plain dune underneath.

.PHONY: all build test chaos soak bench bench-full bench-json bench-conflict \
        bench-simplex bench-warmstart bench-serve docs check-docs \
        check-failwith check-float-sort check-cold-lp check-obs-labels \
        check-snapshot-version check-rel-engines check-lp-engines check-clock \
        check-json check-env serve-smoke bench-gate perfbench-smoke \
        check examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Chaos pass (see docs/ROBUSTNESS.md): first the chaos test suite
# (deterministic schedules, degradation fallbacks, Bland's rule on
# Beale's example), then one benchmark cell under a canned QP_FAULTS
# schedule aggressive enough to trip every degradation path — the cell
# must still complete, annotating each fallback with a "!" line — then
# the serving smoke test with request-level faults armed: the broker
# must answer every request (typed ERR replies, no drops) and every
# clean reply must still match the one-shot oracle — and finally the
# kill/restart soak: every pricing family is kill -9'd and restarted
# from its snapshot, which must restore in milliseconds, price
# bit-identically, shed under overload and drain on SIGTERM (see
# scripts/soak.sh).
chaos:
	dune exec test/main.exe -- test fault
	QP_FAULTS="simplex.pivot:stall:p=0.02:seed=7, conflict.query:fail:p=0.2:seed=3" \
	dune exec bin/qpricing.exe -- run skewed --scale tiny --support 100 --seed 9
	QP_FAULTS="serve.request:fail:p=0.3:seed=11" \
	dune exec bin/qpricing.exe -- serve skewed --scale tiny --support 100 --smoke 20
	bash scripts/soak.sh

# Just the kill/restart chaos soak (the last step of `make chaos`).
soak:
	bash scripts/soak.sh

# Build API documentation (odoc, when installed; a no-op alias otherwise).
docs:
	dune build @doc

# Every exported value in the market and relational interfaces must
# carry a doc comment.
check-docs:
	ocaml scripts/check_mli_docs.ml lib/market lib/relational lib/obs lib/core lib/experiments lib/fault lib/online lib/serve lib/json lib/switch

# No stringly failures (failwith / Failure catches) in the solver and
# algorithm layers — see docs/ROBUSTNESS.md.
check-failwith:
	ocaml scripts/check_no_failwith.ml lib/lp lib/core

# No polymorphic compare in array sorts anywhere in lib/: its NaN
# ordering is unspecified, which once skewed the float percentile and
# valuation sorts. Use Float.compare / Int.compare instead.
check-float-sort:
	ocaml scripts/check_float_sort.ml lib

# No cold Lp.solve calls inside the sweep modules: sweeps must go
# through Lp.Batch / Simplex.resolve so the warm-start path is used.
check-cold-lp:
	ocaml scripts/check_cold_lp_sweeps.ml lib/core

# Every Qp_obs label must be a lowercase dotted name under a prefix
# registered in scripts/check_obs_labels.ml (and documented in
# docs/OBSERVABILITY.md) — keeps the trace/metrics taxonomy closed.
check-obs-labels:
	ocaml scripts/check_obs_labels.ml lib bench

# The broker snapshot marshals OCaml values; changing any
# payload-reachable type layout without bumping format_version in
# lib/serve/snapshot.ml would make old snapshots undefined behavior to
# read. This lint fingerprints those type declarations and fails when
# the layout drifts without a version bump (see the script header).
check-snapshot-version:
	ocaml scripts/check_snapshot_version.ml

# Build every workload's conflict hypergraph at Tiny scale with
# QP_REL_ENGINE=check semantics — the columnar engine races the row
# oracle on every (query, delta) pair — and fail on any disagreement.
check-rel-engines:
	dune exec scripts/check_rel_engines.exe

# Run one Tiny-scale cell of every workload at -j 2 with
# --lp-engine check — every LP the cell solves (the cell's algorithms
# fanned out over the pool, warm-started sweeps included) is re-solved
# on the dense tableau oracle — and fail on any engine disagreement.
LP_CHECK_WORKLOADS = skewed uniform tpch ssb
check-lp-engines:
	dune build bin/qpricing.exe
	@for w in $(LP_CHECK_WORKLOADS); do \
	  out=$$(_build/default/bin/qpricing.exe run $$w --scale tiny -j 2 --lp-engine check 2>&1) \
	    || { echo "$$out"; echo "check-lp-engines: $$w failed"; exit 1; }; \
	  if echo "$$out" | grep "engine disagreement"; then \
	    echo "check-lp-engines: $$w: the revised and dense engines disagree"; exit 1; \
	  fi; \
	  echo "check-lp-engines: $$w ok"; \
	done

# One clock: every duration in lib, bin and bench is read from the
# monotonic Qp_util.Timing (or Qp_obs.now_ns), never the wall clock.
check-clock:
	@if grep -rn --include='*.ml' --include='*.mli' 'Unix.gettimeofday' lib bin bench; then \
	  echo "check-clock: use Qp_util.Timing.now_s / Timing.time, not Unix.gettimeofday"; exit 1; \
	fi; echo "check-clock: ok"

# One JSON codec: lib/json (Qp_json) is the only code under lib, bin or
# bench that prints or parses JSON. A hand-written member (\": inside a
# string literal) or a private escaper elsewhere fails the check.
check-json:
	@if grep -rn --include='*.ml' --include='*.mli' -e '\\":' -e 'json_escape' lib bin bench \
	  | grep -v '^lib/json/'; then \
	  echo "check-json: build values with Qp_json and print them with Qp_json.to_string / to_file"; exit 1; \
	fi; echo "check-json: ok"

# One switch parser (lib/switch, Qp_switch): a one-letter typo in any
# QP_* variable must exit 2 with a message naming the variable, never
# silently mean the default — each case is VAR=TYPO and the program that
# reads it — and no code under lib, bin, bench or scripts outside
# lib/switch may read the environment itself.
ENV_TYPO_CASES = \
  "QP_LP_WARMSTART=of qpricing" "QP_BENCH_PROFILE=ful bench" \
  "QP_JOBS=1o qpricing" "QP_LP_ENGINE=dence qpricing" \
  "QP_REL_ENGINE=rov qpricing" "QP_FAULTS=simplex.pivat:fail qpricing" \
  "QP_BENCH_GATE=of bench_diff"
check-env:
	dune build bin/qpricing.exe bench/main.exe scripts/bench_diff.exe
	@if grep -rn --include='*.ml' --include='*.mli' -e 'Sys.getenv' -e 'Unix.getenv' \
	    lib bin bench scripts | grep -v '^lib/switch/'; then \
	  echo "check-env: declare a Qp_switch next to the code it steers instead"; exit 1; \
	fi
	@for c in $(ENV_TYPO_CASES); do \
	  set -- $$c; var=$${1%%=*}; \
	  case $$2 in \
	    qpricing) cmd="_build/default/bin/qpricing.exe run skewed --scale tiny";; \
	    bench) cmd="_build/default/bench/main.exe micro";; \
	    bench_diff) cmd="_build/default/scripts/bench_diff.exe";; \
	  esac; \
	  err=$$(env "$$1" $$cmd 2>&1 >/dev/null); rc=$$?; \
	  [ $$rc -eq 2 ] || { echo "check-env: $$1 $$2 exited $$rc, want 2"; exit 1; }; \
	  case "$$err" in *"$$var"*) ;; \
	    *) echo "check-env: $$1 $$2 does not name $$var: $$err"; exit 1;; esac; \
	  echo "check-env: $$1 rejected by $$2"; \
	done

# Stand a broker on a temp socket, pull 20 quotes through it, and
# require each to be bit-identical to the in-process pricing — the
# serving layer's end-to-end identity gate (see docs/SERVING.md). Then
# served vs one-shot: a QUOTE sent through `qpricing probe` to `qpricing
# serve skewed --scale tiny` and `qpricing quote skewed` on the same SQL
# must print byte-identical reply lines.
SMOKE_SQL = SELECT count(*) FROM Country WHERE Continent = 'Europe'
serve-smoke:
	dune exec bin/qpricing.exe -- serve skewed --scale tiny --support 100 --smoke 20
	dune build bin/qpricing.exe
	@bin=_build/default/bin/qpricing.exe; \
	sock=$$(mktemp -u /tmp/qpsmoke.XXXXXX); \
	$$bin serve skewed --scale tiny --socket $$sock >/dev/null & pid=$$!; \
	served=$$($$bin probe --socket $$sock --retries 500 "QUOTE $(SMOKE_SQL)" SHUTDOWN | sed -n 1p); \
	kill $$pid 2>/dev/null; wait $$pid 2>/dev/null; \
	oneshot=$$($$bin quote skewed "$(SMOKE_SQL)"); \
	echo "served:   $$served"; echo "one-shot: $$oneshot"; \
	case "$$served" in OK*) ;; *) echo "serve-smoke: served QUOTE failed"; exit 1;; esac; \
	[ "$$served" = "$$oneshot" ] || { echo "serve-smoke: served and one-shot replies differ"; exit 1; }

# Re-run the gated benchmarks (quick profile) and compare the pinned
# metrics — simplex crossover, warm-start pivot savings, serve
# throughput and identity — against the committed bench/baselines/.
# Exit 1 on a regression past the thresholds in scripts/bench_diff.ml;
# QP_BENCH_GATE=off skips the whole gate (benchmarks included), read by
# the Qp_switch rule: trimmed, any case.
bench-gate:
ifeq ($(strip $(shell echo '$(QP_BENCH_GATE)' | tr A-Z a-z)),off)
	@echo "bench gate: skipped (QP_BENCH_GATE=off) — benchmarks not run"
else
	dune exec bench/main.exe -- simplex warmstart serve conflict
	dune exec scripts/bench_diff.exe
endif

# The repository benchmark's Tiny-scale self-test (~10 s, see
# perfbench/README.md): runs each cell once and fails when its revenues
# drift from the recorded references.
perfbench-smoke:
	dune build @perfbench/smoke

# The full pre-merge gate: build, tests, doc coverage, failure lints,
# serving smoke, benchmark self-test, perf-regression gate.
check: build test check-docs check-failwith check-float-sort check-cold-lp check-obs-labels check-snapshot-version check-rel-engines check-lp-engines check-clock check-json check-env serve-smoke perfbench-smoke bench-gate

# Regenerate every table and figure of the paper (Quick profile).
bench:
	dune exec bench/main.exe

# Closer-to-paper settings: 5 runs per cell, finer LP grids. Slow.
bench-full:
	QP_BENCH_PROFILE=full dune exec bench/main.exe

# Time the parallel layer (jobs=1 vs jobs=N, BENCH_parallel.json), the
# simplex engines (dense vs revised, BENCH_simplex.json), the
# warm-started sweeps (cold vs warm, BENCH_warmstart.json) and the
# serving layer under load (BENCH_serve.json).
bench-json:
	dune exec bench/main.exe -- parallel simplex warmstart serve

# Time conflict-set construction (jobs=1 vs jobs=N), verify bit-identity
# of the hypergraphs, and write BENCH_conflict.json.
bench-conflict:
	dune exec bench/main.exe -- conflict

# Time the dense tableau vs the revised simplex across growing LP sizes
# and write BENCH_simplex.json (records the crossover size).
bench-simplex:
	dune exec bench/main.exe -- simplex

# Replay the skewed workload through a standing broker at 1/2/4/8
# clients, check served quotes against the one-shot oracle bit-for-bit,
# and write BENCH_serve.json (latency percentiles + quotes/sec).
bench-serve:
	dune exec bench/main.exe -- serve

examples:
	dune exec examples/quickstart.exe
	dune exec examples/data_market.exe
	dune exec examples/valuation_study.exe
	dune exec examples/support_tuning.exe
	dune exec examples/online_learning.exe

clean:
	dune clean
