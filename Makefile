# Developer entry points.  Everything runs from the repo root with the
# in-tree sources on PYTHONPATH (no install required).

PY ?= python
export PYTHONPATH := src

.PHONY: test check typecheck examples bench bench-smoke perf perf-layers

test:
	$(PY) -m pytest -x -q

# Static contract analysis (repro check): determinism, telemetry
# discipline, N+1 lint, exception hygiene and canonical dtypes
# over src/repro/, gated against the committed (empty) baseline.  Exits
# non-zero on any new finding; dependency-free, so it runs anywhere the
# tests do.
check:
	$(PY) -m repro.cli check --baseline check_baseline.json

# Strict mypy over repro.obs and repro.trust.backend
# (config in pyproject.toml).  Needs mypy: pip install -e .[dev] first.
# CI runs this on the newest Python only.
typecheck:
	$(PY) -m mypy --config-file pyproject.toml

# Run every script under examples/ (about 5 s in total), printing each
# name; the target fails on the first script that exits non-zero.
examples:
	@for script in examples/*.py; do \
	  echo "$$script"; \
	  $(PY) $$script > /dev/null || exit 1; \
	done

# Full benchmark/experiment suite: regenerates every table and figure under
# benchmarks/results/.
bench:
	$(PY) -m pytest benchmarks -q

# Cheap guard that every benchmark still runs: tiny parameters via
# REPRO_BENCH_SMOKE, one pass, fail fast.  Keeps benchmarks from silently
# rotting without paying the full measurement cost.  This includes the
# enforced acceptance bars: backend batching speedups, the sharded
# complaint store's overhead (bench_sharded_backend: < 3x at 4 shards,
# the two-shard complaint delivery plus scatter/gather), live-rebalance
# balance and split-pause bars (bench_shard_rebalance: max shard share
# <= 2/N after auto splits at < 10% pause cost), the evidence-repair
# convergence/overhead/compactness bars (bench_evidence_repair: gossip
# >= 0.99 effective delivery at < 3x message overhead under 20% loss, and
# gossip_digest_compact: once a gossip run with witness traffic has
# settled, every journal holds each origin's seqs 1..n and none past them).
# Each benchmark fails on any enforced bar that reads ok: false, naming it
# with its value and limit; its BENCH_*.json "passed" flag records that same
# verdict (unenforced bars are recorded but never fail the run).  Smoke
# results go to benchmarks/results/smoke/, so the committed full-scale
# results are never overwritten.
bench-smoke:
	REPRO_BENCH_SMOKE=1 $(PY) -m pytest benchmarks -x -q

# End-to-end round-loop benchmark (perfbench/run.py --trace 0) on every
# workload, seed 0, 40 s each as in BENCHMARK.json.  Each repetition's
# result is checked against the recorded fingerprints in
# perfbench/references.json; the target fails unless every workload
# reports "correct": true.
perf:
	@status=0; \
	for workload in flash-sync sybil-gossip sybil-steady; do \
	  line=$$($(PY) perfbench/run.py --workload $$workload --seed 0 \
	    --seconds 40 --trace 0 | tail -n 1); \
	  echo "$$workload: $$(echo "$${line:-no result (see the errors above)}" | sed 's/, "metrics".*/}/')"; \
	  case "$$line" in *'"correct": true'*) ;; *) status=1 ;; esac; \
	done; \
	exit $$status

# Per-layer attribution of one workload: perfbench/run.py --trace 1, seed 0,
# 20 s.  Prints one "name value" line per layer self time (*_s), share of
# the traced total (*_share) and fitted scaling exponent (scale.*), and
# fails unless the run reports "correct": true.
#   make perf-layers WORKLOAD=flash-sync
perf-layers:
	@test -n "$(WORKLOAD)" || { echo "usage: make perf-layers WORKLOAD=<name>"; exit 2; }
	@line=$$($(PY) perfbench/run.py --workload $(WORKLOAD) --seed 0 \
	  --seconds 20 --trace 1 | tail -n 1); \
	echo "$$line" | $(PY) -c 'import json, sys; \
	result = json.loads(sys.stdin.read()); \
	[print(name, metric["value"]) for name, metric in result["metrics"].items() \
	 if name.endswith(("_s", "_share")) or name.startswith("scale.")]; \
	sys.exit(0 if result["correct"] else 1)'
