PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-optimizer test-repair test-conc test-semcache test-bench bench bench-smoke lint lint-conc analyze-smoke trace-smoke verify

test:
	$(PYTHON) -m pytest -x -q

# The query-optimizer suites on their own: plan-equivalence harness,
# golden EXPLAIN footers, selectivity regressions.
test-optimizer:
	$(PYTHON) -m pytest tests/db/test_optimizer_equivalence.py tests/db/test_optimizer_explain.py tests/analysis/test_selectivity.py -q

# The self-correction suites on their own: repair-loop mechanics,
# worker-invariance with repairs firing, the repair handler, metered
# row-cap truncation, and a smoke pass of the E18 sweep.
test-repair:
	$(PYTHON) -m pytest tests/core/test_repair.py tests/serve/test_repair_determinism.py tests/lm/test_repair_handler.py tests/db/test_max_rows.py -q
	REPRO_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_repair.py -q

# The semantic-cache suites on their own: canonicalizer properties,
# cache/registry unit tests (including both retrieval-path regression
# suites), and the serve-integration equivalence/invariance tests.
test-semcache:
	$(PYTHON) -m pytest tests/serve/test_semantic.py tests/serve/test_semantic_serve.py tests/embed/test_hashing.py tests/vector/test_indexes.py -q

# The repo benchmark's own tests (tagperf/): workload inputs, metric
# extraction and the traced per-layer run.  Not collected by `test`,
# whose testpaths are tests/ only.
test-bench:
	$(PYTHON) -m pytest tagperf/tests -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-smoke:
	REPRO_SMOKE=1 $(PYTHON) -m pytest benchmarks/bench_resilience.py benchmarks/bench_repair.py benchmarks/bench_trace_overhead.py benchmarks/bench_udf_batching.py benchmarks/bench_optimizer.py benchmarks/bench_racecheck.py benchmarks/bench_semcache.py -q

# The concurrency suites on their own: static-analyzer golden rules
# and lockset properties, dynamic checker unit tests, and the serve
# worker-sweep replay under an installed RaceChecker.
test-conc:
	$(PYTHON) -m pytest tests/analysis/test_concurrency.py tests/obs/test_racecheck.py tests/serve/test_racecheck_serve.py -q

# Determinism linter over src/ (see repro.analysis.lint); exits
# nonzero on any unsuppressed finding.
lint:
	$(PYTHON) -m repro lint

# Static concurrency analyzer over src/ (lockset inference, shared
# state, lock order — see repro.analysis.concurrency); exits nonzero
# on any unwaived CONC finding.
lint-conc:
	$(PYTHON) -m repro lint --conc

# The static analyzer must accept a known-good query and reject a
# known-bad one, end to end through the CLI.
analyze-smoke:
	$(PYTHON) -m repro analyze "SELECT name FROM circuits LIMIT 3" --db formula_1
	! $(PYTHON) -m repro analyze "SELECT nope FROM circuits" --db formula_1

# Trace determinism smoke: the same traced demo workload must export
# byte-identical Chrome traces at different worker counts (the
# tentpole contract of repro.obs).
trace-smoke:
	@mkdir -p benchmarks/out
	$(PYTHON) -m repro trace --workers 1 --out benchmarks/out/trace-w1.json
	$(PYTHON) -m repro trace --workers 3 --out benchmarks/out/trace-w3.json
	cmp benchmarks/out/trace-w1.json benchmarks/out/trace-w3.json
	@rm -f benchmarks/out/trace-w1.json benchmarks/out/trace-w3.json
	@echo "trace-smoke: byte-identical across worker counts"

# The pre-merge gate: full tier-1 suite, the concurrency,
# semantic-cache and benchmark-harness suites, a smoke-mode pass of the
# resilience, repair, trace-overhead, race-check, and semantic-cache
# benchmarks, clean determinism-lint and concurrency baselines, an
# analyzer round-trip through the CLI, and the trace worker-invariance
# smoke.
verify: test test-conc test-semcache test-bench bench-smoke lint lint-conc analyze-smoke trace-smoke
	@echo "verify: OK"
