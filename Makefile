# Convenience targets for the SDX reproduction.

PYTHON ?= python

.PHONY: install test lint lint-policies-smoke dataplane-lint-smoke federation-smoke bench bench-results sdxbench-check sdxbench-compare examples docs telemetry-smoke fuzz soak-smoke chaos-smoke monitor-smoke clean

# Differential fuzzing session knobs (see docs/TESTING.md).
FUZZ_SEED ?= 0
FUZZ_BUDGET ?= 60
FUZZ_ARTIFACTS ?= artifacts/fuzz

# Chaos soak session knobs (see docs/TESTING.md).
CHAOS_SEED ?= 0
CHAOS_BUDGET ?= 60
CHAOS_ARTIFACTS ?= artifacts/chaos

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Runs ruff and mypy when available (config in pyproject.toml); falls
# back to a byte-compile pass so the target still catches syntax errors
# on machines without the linters.
lint:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src/ tests/ benchmarks/ tools/ examples/; \
	else \
		echo "ruff not installed; falling back to compileall"; \
		$(PYTHON) -m compileall -q src/ tests/ benchmarks/ tools/ examples/; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed; skipping type check"; \
	fi

# The static policy verifier over every linting surface: the example
# apps, a generated Section 6.1 workload, and a seeded defect-injection
# run that must detect all six defect classes. Drops a JSON artifact
# (CI uploads it) and exits non-zero on any error-severity diagnostic.
lint-policies-smoke:
	@mkdir -p artifacts
	PYTHONPATH=src $(PYTHON) -m repro lint-policies --examples \
		--output artifacts/lint-policies-examples.json
	PYTHONPATH=src $(PYTHON) -m repro lint-policies --workload \
		--participants 12 --prefixes 80
	PYTHONPATH=src $(PYTHON) -m repro lint-policies --defects \
		--participants 8 --prefixes 16 \
		--output artifacts/lint-policies-defects.json
	PYTHONPATH=src $(PYTHON) -m repro lint-policies --federation-defects \
		--output artifacts/lint-policies-federation-defects.json
	PYTHONPATH=src $(PYTHON) -m repro lint-dataplane --defects \
		--participants 8 --prefixes 16 \
		--output artifacts/lint-dataplane-defects.json

# The dataplane verifier over its linting surfaces: the flow rules a
# compiled Section 6.1 workload actually installs, plus a seeded
# dataplane defect-injection run (compiled blackhole + shadowed
# install) that must detect both defect classes. Drops JSON artifacts
# (CI uploads them) and exits non-zero on any error-severity
# diagnostic or a missed defect.
dataplane-lint-smoke:
	@mkdir -p artifacts
	PYTHONPATH=src $(PYTHON) -m repro lint-dataplane --workload \
		--participants 12 --prefixes 80 \
		--output artifacts/lint-dataplane-workload.json
	PYTHONPATH=src $(PYTHON) -m repro lint-dataplane --defects \
		--participants 8 --prefixes 16 \
		--output artifacts/lint-dataplane-defects.json
	PYTHONPATH=src $(PYTHON) -m repro fuzz --dataplane \
		--seed $(FUZZ_SEED) --scenarios 40 --participants 4 \
		--prefixes 4 --policies 4 --steps 8 --time-budget $(FUZZ_BUDGET) \
		--artifact-dir $(FUZZ_ARTIFACTS)

# Multi-SDX federation cross-validation: a time-boxed federated fuzz
# session (SDX008/SDX009 witness contracts + real-vs-reference walk
# differential at every churn step) over 2- and 3-exchange shapes, plus
# the federation defect-recall gate. Failure artifacts (shrunk,
# replayable with `repro fuzz --replay`) land under artifacts/federation
# for CI upload.
FEDERATION_SEED ?= 0
FEDERATION_BUDGET ?= 60
FEDERATION_ARTIFACTS ?= artifacts/federation

federation-smoke:
	@mkdir -p $(FEDERATION_ARTIFACTS)
	PYTHONPATH=src $(PYTHON) -m repro fuzz --federation \
		--seed $(FEDERATION_SEED) --scenarios 40 --steps 6 \
		--time-budget $(FEDERATION_BUDGET) \
		--artifact-dir $(FEDERATION_ARTIFACTS)
	PYTHONPATH=src $(PYTHON) -m repro fuzz --federation --exchanges 3 \
		--seed $(FEDERATION_SEED) --scenarios 10 --steps 4 \
		--time-budget $(FEDERATION_BUDGET) \
		--artifact-dir $(FEDERATION_ARTIFACTS)
	PYTHONPATH=src $(PYTHON) -m repro lint-policies --federation-defects \
		--output $(FEDERATION_ARTIFACTS)/defect-recall.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-results: bench
	@cat benchmarks/results/*.txt

# The contract benchmark's self-test on a tiny exchange: every workload
# runs, every output check holds, and the `repro.verification` names
# benchmarks/sdxbench imports still resolve (see docs/PERFORMANCE.md).
sdxbench-check:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/sdxbench/check_harness.py -q

# How a performance claim is checked: the contract benchmark on this
# checkout against BASE (any git revision). BASE goes into a temporary
# git worktree; each side runs its own benchmarks/sdxbench/run.py, three
# runs of every workload at the contract's 12 s; then this checkout's
# compare.py gives one verdict per cell. Exits with compare.py's status
# (non-zero on any `worse` cell or more failed ops). Both result sets
# and the comparison land under artifacts/sdxbench/.
sdxbench-compare:
	@test -n "$(BASE)" || { echo "usage: make sdxbench-compare BASE=<rev>"; exit 2; }
	@mkdir -p artifacts/sdxbench
	rm -f artifacts/sdxbench/base.json artifacts/sdxbench/change.json
	git worktree remove --force artifacts/sdxbench/base-tree 2>/dev/null || true
	git worktree add --detach artifacts/sdxbench/base-tree $(BASE)
	-$(PYTHON) artifacts/sdxbench/base-tree/benchmarks/sdxbench/run.py \
		--out artifacts/sdxbench/base.json --repeat 3 --seconds 12
	git worktree remove --force artifacts/sdxbench/base-tree
	-$(PYTHON) benchmarks/sdxbench/run.py \
		--out artifacts/sdxbench/change.json --repeat 3 --seconds 12
	@$(PYTHON) benchmarks/sdxbench/compare.py artifacts/sdxbench/base.json \
		artifacts/sdxbench/change.json > artifacts/sdxbench/compare.txt; \
		status=$$?; cat artifacts/sdxbench/compare.txt; exit $$status

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script; \
		echo; \
	done

docs:
	$(PYTHON) tools/gen_api_docs.py

# Time-boxed differential fuzzing of the update pipeline: the marked
# soak tests, then a budgeted `repro fuzz` session that drops replayable
# artifacts under $(FUZZ_ARTIFACTS) on divergence.
fuzz:
	PYTHONPATH=src $(PYTHON) -m pytest -m fuzz
	PYTHONPATH=src $(PYTHON) -m repro fuzz --seed $(FUZZ_SEED) \
		--scenarios 1000 --time-budget $(FUZZ_BUDGET) \
		--artifact-dir $(FUZZ_ARTIFACTS)

# Short control-plane runtime soaks: every overload policy plus the
# threaded worker, small enough for CI, loud enough to catch a hang or
# an unconverged (degraded / fast-path-debt) final state.
soak-smoke:
	PYTHONPATH=src $(PYTHON) -m repro soak --participants 12 \
		--prefixes 100 --updates 400 --burst-size 100 --hot-prefixes 12
	PYTHONPATH=src $(PYTHON) -m repro soak --participants 12 \
		--prefixes 100 --updates 400 --burst-size 100 --hot-prefixes 12 \
		--queue-depth 64 --overload shed-oldest --no-coalesce
	PYTHONPATH=src $(PYTHON) -m repro soak --participants 12 \
		--prefixes 100 --updates 400 --burst-size 100 --hot-prefixes 12 \
		--queue-depth 64 --overload degrade --threaded

# Time-boxed BGP churn/failure chaos soak: the chaos test package (the
# golden replay among it), then a budgeted seeded `repro soak --chaos`
# session covering all six fault classes. A failed settle assertion
# shrinks to a minimal schedule and drops a replayable artifact under
# $(CHAOS_ARTIFACTS).
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/chaos -q
	PYTHONPATH=src $(PYTHON) -m repro soak --chaos --seed $(CHAOS_SEED) \
		--scenarios 1000 --time-budget $(CHAOS_BUDGET) \
		--artifact-dir $(CHAOS_ARTIFACTS)

# Closed-loop monitoring gate: both canned scenarios must converge —
# the balancer evens out the shifted load, the steering offloads the
# heavy hitter — within the reaction budget. Each run drops its JSON
# report under artifacts/ (CI uploads them) and exits non-zero on a
# miss.
monitor-smoke:
	@mkdir -p artifacts
	PYTHONPATH=src $(PYTHON) -m repro monitor --smoke \
		--output artifacts/monitor-shifting.json
	PYTHONPATH=src $(PYTHON) -m repro monitor --smoke --scenario skewed \
		--output artifacts/monitor-skewed.json

# Runs a small workload, dumps the Prometheus exposition, and checks
# that every core metric family reported activity.
telemetry-smoke:
	@PYTHONPATH=src $(PYTHON) -m repro stats --format prometheus \
		--participants 12 --prefixes 100 --updates 10 > /tmp/telemetry-smoke.prom
	@for family in sdx_bgp_updates_total sdx_compile_total \
		sdx_compile_stage_seconds sdx_fastpath_invocations_total \
		sdx_vnh_allocated_total sdx_southbound_flowmods_total \
		sdx_southbound_apply_seconds sdx_flowtable_rules \
		sdx_trace_spans_total; do \
		grep -q "^$$family" /tmp/telemetry-smoke.prom \
			|| { echo "missing metric family: $$family"; exit 1; }; \
	done
	@echo "telemetry smoke OK ($$(grep -c '^sdx_' /tmp/telemetry-smoke.prom) sample lines)"

clean:
	rm -rf benchmarks/results .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
