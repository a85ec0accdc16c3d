# Convenience targets; everything works without make, see docs/LINT.md.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-sanitize lint lint-json lint-changed leakcheck leakcheck-scan bench-figures campaign campaign-smoke fleet-smoke kernel-equivalence perfbench-check check

test:
	$(PYTHON) -m pytest -x -q

test-sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q

# Every rule in one pass: the syntactic rules and the CFG/dataflow rules
# (RL014, RL015, RL018) share one parse and one CFG per file.
lint:
	$(PYTHON) -m repro.lint src tests benchmarks examples

lint-json:
	$(PYTHON) -m repro.lint src tests benchmarks examples --format json

# Pre-commit convenience: lint only files changed vs HEAD.
lint-changed:
	$(PYTHON) -m repro.lint src tests benchmarks examples --changed

leakcheck:
	$(PYTHON) -m repro.leakcheck --suite

# Whole-tree gadget discovery (exit 1 = gadgets found is expected: the
# simulator sources *are* AfterImage gadgets; exit 3 = the scan itself
# crashed and must fail the gate), then the planted-fixture positive
# control, which must flag EX001 (exit 1) or the scan is blind.
leakcheck-scan:
	$(PYTHON) -m repro.leakcheck --scan src/repro/crypto src/repro/kernel src/repro/core; \
		rc=$$?; if [ $$rc -ne 0 ] && [ $$rc -ne 1 ]; then \
			echo "leakcheck --scan crashed (exit $$rc)"; exit $$rc; fi
	@$(PYTHON) -m repro.leakcheck --extract src/repro/leakcheck/extract/fixtures.py > /dev/null; \
		rc=$$?; if [ $$rc -ne 1 ]; then \
			echo "positive control failed: fixture scan exited $$rc, want 1"; exit 1; \
		else echo "positive control: planted fixture flagged (exit 1)"; fi

# The three paper-evaluation grids, cached and resumable in .campaign-store
# (re-run `make campaign` after an interrupt: finished cells are not redone).
campaign:
	$(PYTHON) -m repro.cli campaign run revng-table1 --store .campaign-store
	$(PYTHON) -m repro.cli campaign run attacks-vs-noise --store .campaign-store
	$(PYTHON) -m repro.cli campaign run defense-matrix --store .campaign-store

# The CI smoke (mirrors the CI `campaign-smoke` job): a tiny campaign run
# twice into one store; the second pass must execute nothing.  Byte-identical
# warm aggregates are pinned by tests/test_campaign_runner.py.
CAMPAIGN_SMOKE_ARGS := attacks-vs-noise --attacks variant1,sgx --rounds 3 --repeats 1
campaign-smoke:
	rm -rf campaign-smoke-store
	$(PYTHON) -m repro.cli campaign run $(CAMPAIGN_SMOKE_ARGS) --store campaign-smoke-store
	$(PYTHON) -m repro.cli campaign run $(CAMPAIGN_SMOKE_ARGS) --store campaign-smoke-store \
		| tee campaign-smoke-store/warm.txt
	grep -q "cached, 0 executed, 0 failed" campaign-smoke-store/warm.txt
	$(PYTHON) -m repro.cli campaign status $(CAMPAIGN_SMOKE_ARGS) --store campaign-smoke-store \
		| grep -q "a run would execute nothing"
	@echo "campaign-smoke: the warm pass executed nothing"

# Fleet fill in miniature (mirrors the CI `fleet-smoke` job): the 24-cell
# attacks-vs-noise grid filled serially and by two --shard workers in
# parallel, workers merged, and the two aggregates diffed byte-for-byte.
FLEET_SMOKE_ARGS := attacks-vs-noise --repeats 1 --rounds 6
fleet-smoke:
	rm -rf fleet-smoke-store
	$(PYTHON) -m repro.cli campaign run $(FLEET_SMOKE_ARGS) --store fleet-smoke-store/serial
	$(PYTHON) -m repro.cli campaign run $(FLEET_SMOKE_ARGS) --shard 0/2 --store fleet-smoke-store/worker-0 & \
		$(PYTHON) -m repro.cli campaign run $(FLEET_SMOKE_ARGS) --shard 1/2 --store fleet-smoke-store/worker-1 & \
		wait
	$(PYTHON) -m repro.cli campaign merge fleet-smoke-store/worker-0 fleet-smoke-store/worker-1 --store fleet-smoke-store/merged
	$(PYTHON) -m repro.cli campaign aggregate $(FLEET_SMOKE_ARGS) --store fleet-smoke-store/serial -o fleet-smoke-store/serial.agg.json
	$(PYTHON) -m repro.cli campaign aggregate $(FLEET_SMOKE_ARGS) --store fleet-smoke-store/merged -o fleet-smoke-store/merged.agg.json
	cmp fleet-smoke-store/serial.agg.json fleet-smoke-store/merged.agg.json
	@echo "fleet-smoke: sharded fill + merge is byte-identical to the serial run"

# The kernel refactor gate: the differential suite (golden traces and
# aggregates), the machine's lifetime (no reference cycle keeps a dropped
# machine alive) and its swappable IP-stride table, the observation
# contract (an untraced machine builds no trace event, sanitized or not;
# the load and switch paths emit their trace event before the sanitizer
# audits), the per-load layer call counts behind the perfbench `.calls`
# pins, and the construction paths (eviction-set index, switch-noise frame
# table) against the per-item code they replaced.
# Mirrors the CI `kernel-equivalence` job.
KERNEL_EQUIVALENCE_TESTS := tests/test_kernel_equivalence.py \
	tests/test_cpu_machine.py::TestLifetime tests/test_cpu_machine.py::TestPrefetcherSwap \
	tests/test_obs_overhead.py::TestDisabledPath::test_no_event_constructed_when_disabled \
	tests/test_obs_overhead.py::TestDisabledPath::test_no_trace_event_constructed_when_only_sanitized \
	tests/test_obs.py::TestOneObservationPath::test_load_is_traced_then_audited \
	tests/test_obs.py::TestOneObservationPath::test_switch_is_traced_then_audited
CONSTRUCTION_TESTS := tests/test_channels.py::TestEvictionSets \
	tests/test_memsys_hierarchy.py::TestSliceHash::test_slices_of_matches_slice_of \
	tests/test_cpu_machine.py::TestNoiseInjection::test_switch_and_tick_noise_make_no_page_walk
kernel-equivalence:
	$(PYTHON) -m pytest -x -q $(KERNEL_EQUIVALENCE_TESTS) tests/test_load_path.py
	$(PYTHON) -m pytest -x -q $(CONSTRUCTION_TESTS)

# The simulator-speed gate: one untraced and one traced unit of each gated
# perfbench workload must reproduce perfbench/reference.json (output digest,
# summed machine counters, layer call counts); the run's last line is its
# JSON result and must read "correct": true.  revng is not a BENCHMARK.json
# workload, but it is 94% machine builds, so it gates construction.
# Two seeds, because a change can match the reference on one machine seed
# and not on another.  Mirrors the CI `perfbench-gate` job.
PERFBENCH_WORKLOADS := table3 campaign-cold revng
PERFBENCH_SEEDS := 0 1
perfbench-check:
	@for w in $(PERFBENCH_WORKLOADS); do for s in $(PERFBENCH_SEEDS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed $$s --seconds 1 --trace 1 \
			| tee perfbench-check.log; \
		tail -n 1 perfbench-check.log | $(PYTHON) -c \
			'import json, sys; sys.exit(json.loads(sys.stdin.read()).get("correct") is not True)' \
			|| { echo "perfbench-check: $$w seed $$s is not correct against perfbench/reference.json"; \
				rm -f perfbench-check.log; exit 1; }; \
	done; done; rm -f perfbench-check.log; echo "perfbench-check: all workloads correct"

# The paper-figure pytest benchmarks.
bench-figures:
	$(PYTHON) -m pytest benchmarks -q

# The CI gate: static analysis, the leakage-verdict matrix, the
# extraction scan (with its seeded-fixture positive control), a
# sanitizer-instrumented smoke slice of the test suite, the golden
# traces on sanitized machines (the sanitizer audits each load and switch
# after it is traced, and its violations are traced too; the goldens
# must not move), and the observability overhead/determinism tests.
check: lint leakcheck leakcheck-scan
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q tests/test_examples.py tests/test_leakcheck.py \
		tests/test_memsys_hierarchy.py tests/test_core_variant1.py
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q tests/test_kernel_equivalence.py
	$(PYTHON) -m pytest -x -q tests/test_obs.py tests/test_obs_metrics.py tests/test_obs_overhead.py
	@echo "check: all gates passed"
