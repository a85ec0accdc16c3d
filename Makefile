# Convenience targets; everything works without make, see docs/LINT.md.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-sanitize lint lint-fast lint-json lint-changed leakcheck leakcheck-scan bench bench-figures campaign campaign-smoke fleet-smoke kernel-equivalence perfbench-check check

test:
	$(PYTHON) -m pytest -x -q

test-sanitize:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q

# Full pass: syntactic rules + the CFG/dataflow rules (RL014-RL019).
lint:
	$(PYTHON) -m repro.lint src tests benchmarks examples

# Syntactic rules only (the flow pass dominates lint wall time).
lint-fast:
	$(PYTHON) -m repro.lint src tests benchmarks examples --no-flow

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

# Per-attack wall-clock / simulated-cycle totals -> BENCH_obs.json, plus
# the serial-vs-parallel executor comparison -> BENCH_attacks.json, the
# cold-vs-warm campaign store comparison -> BENCH_campaign.json and the
# cross-process telemetry contract -> BENCH_telemetry.json and the
# serving-layer latency contract -> BENCH_serve.json.
# Pre-existing artifacts are snapshotted to *.baseline and diffed with the
# regression gate (generous tolerance: same-machine wall clocks still
# wobble under load; the determinism fields are compared exactly
# regardless).
BENCH_ARTIFACTS := BENCH_obs.json BENCH_attacks.json BENCH_campaign.json BENCH_telemetry.json BENCH_serve.json

bench:
	@for f in $(BENCH_ARTIFACTS); do \
		if [ -f $$f ]; then cp $$f $$f.baseline; fi; done
	$(PYTHON) benchmarks/bench_obs.py --out BENCH_obs.json --attacks-out BENCH_attacks.json --jobs 2
	$(PYTHON) benchmarks/bench_campaign.py --out BENCH_campaign.json --jobs 2
	$(PYTHON) benchmarks/bench_telemetry.py --out BENCH_telemetry.json --jobs 2
	$(PYTHON) benchmarks/bench_serve.py --out BENCH_serve.json --jobs 2
	@for f in $(BENCH_ARTIFACTS); do \
		if [ -f $$f.baseline ]; then \
			$(PYTHON) -m repro bench compare $$f.baseline $$f --tolerance 0.5 || exit 1; \
		fi; done

# The three paper-evaluation grids, cached and resumable in .campaign-store
# (re-run `make campaign` after an interrupt: finished cells are not redone).
campaign:
	$(PYTHON) -m repro.cli campaign run revng-table1 --store .campaign-store --jobs 2
	$(PYTHON) -m repro.cli campaign run attacks-vs-noise --store .campaign-store --jobs 2
	$(PYTHON) -m repro.cli campaign run defense-matrix --store .campaign-store --jobs 2

# The CI smoke: a tiny campaign twice; the second pass must be 100% cache
# hits with byte-identical aggregates (asserted inside the benchmark).
campaign-smoke:
	$(PYTHON) benchmarks/bench_campaign.py --out BENCH_campaign.json --campaign attacks-vs-noise --attacks variant1,sgx --rounds 3 --store campaign-smoke-store

# Fleet fill in miniature (mirrors the CI `fleet-smoke` job): the 24-cell
# attacks-vs-noise grid filled serially and by two --shard workers in
# parallel, workers merged, and the two aggregates diffed byte-for-byte;
# then the serving-layer latency contract over the merged store.
FLEET_SMOKE_ARGS := attacks-vs-noise --repeats 1 --rounds 6
fleet-smoke:
	rm -rf fleet-smoke-store
	$(PYTHON) -m repro.cli campaign run $(FLEET_SMOKE_ARGS) --store fleet-smoke-store/serial --jobs 2
	$(PYTHON) -m repro.cli campaign run $(FLEET_SMOKE_ARGS) --shard 0/2 --store fleet-smoke-store/worker-0 --jobs 2 & \
		$(PYTHON) -m repro.cli campaign run $(FLEET_SMOKE_ARGS) --shard 1/2 --store fleet-smoke-store/worker-1 --jobs 2 & \
		wait
	$(PYTHON) -m repro.cli campaign merge fleet-smoke-store/worker-0 fleet-smoke-store/worker-1 --store fleet-smoke-store/merged
	$(PYTHON) -m repro.cli campaign aggregate $(FLEET_SMOKE_ARGS) --store fleet-smoke-store/serial -o fleet-smoke-store/serial.agg.json
	$(PYTHON) -m repro.cli campaign aggregate $(FLEET_SMOKE_ARGS) --store fleet-smoke-store/merged -o fleet-smoke-store/merged.agg.json
	cmp fleet-smoke-store/serial.agg.json fleet-smoke-store/merged.agg.json
	@echo "fleet-smoke: sharded fill + merge is byte-identical to the serial run"
	$(PYTHON) benchmarks/bench_serve.py --out BENCH_serve.ci.json --rounds 6 --attacks variant1,covert --readers 20 --requests-per-reader 3
	@rm -f BENCH_serve.ci.json

# The kernel refactor gate: the differential suite (golden traces and
# aggregates).  Mirrors the CI `kernel-equivalence` job.
kernel-equivalence:
	$(PYTHON) -m pytest -x -q tests/test_kernel_equivalence.py

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

# The paper-figure pytest benchmarks (the old `make bench`).
bench-figures:
	$(PYTHON) -m pytest benchmarks -q

# The CI gate: static analysis, the leakage-verdict matrix, the
# extraction scan (with its seeded-fixture positive control), a
# sanitizer-instrumented smoke slice of the test suite, and the
# observability overhead/determinism tests.
check: lint leakcheck leakcheck-scan
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q tests/test_examples.py tests/test_leakcheck.py
	$(PYTHON) -m pytest -x -q tests/test_obs.py tests/test_obs_metrics.py tests/test_obs_overhead.py
	@echo "check: all gates passed"
