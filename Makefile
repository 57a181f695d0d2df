GO ?= go

.PHONY: build test verify ci bench bench-quick bench-compare service-bench service-bench-short obs-smoke overload-smoke faults-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification (ROADMAP.md): everything must build and pass.
verify: build test

# CI target: vet plus the full suite under the race detector — the fast
# path shares evaluators across scheduler workers and the experiment lab
# fans trials across cores, so racy regressions must fail loudly. The
# one-iteration bench pass exercises the benchmark bodies (also under
# -race) without paying for steady-state timing. The harness under
# benchmark/ is a module of its own, outside ./...: vetting and testing it
# here makes a core/service signature drift that breaks it fail CI rather
# than the next benchmark run.
ci:
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	$(MAKE) faults-smoke
	$(MAKE) obs-smoke
	$(MAKE) overload-smoke
	$(GO) test -race -timeout 45m ./...
	$(MAKE) bench-quick
	$(MAKE) service-bench-short

# Run the benchmark suite and archive it as machine-readable JSON
# (name -> ns/op, allocs/op, evals/s) for cross-commit comparison. The
# raw text lands in BENCH_cbes.txt; the > (not a pipe) keeps a bench
# failure failing the target.
bench:
	$(GO) test -run xxx -bench . -benchmem ./... > BENCH_cbes.txt
	$(GO) run ./cmd/benchjson -o BENCH_cbes.json < BENCH_cbes.txt

# Smoke-run the benchmark bodies once under the race detector. This is a
# correctness gate (pooled events + parallel trials must be race-clean on
# the bench paths too), not a timing run; -short drops the multi-second
# experiment-suite benches, which the race suite already covers.
bench-quick:
	$(GO) test -short -run xxx -bench . -benchtime 1x -race -timeout 30m ./...

# Re-run the suite and diff against the archived snapshot; fails if any
# benchmark regressed more than 20% in ns/op or allocs/op, or more than
# 20% in bytes/op (the memory gate that keeps O(N²) state out of the
# topology build and the scoring hot path).
bench-compare:
	$(GO) test -run xxx -bench . -benchmem ./... > BENCH_new.txt
	$(GO) run ./cmd/benchjson -o BENCH_new.json < BENCH_new.txt
	$(GO) run ./cmd/benchjson -diff -threshold 20 -bytes-threshold 20 BENCH_cbes.json BENCH_new.json

# Concurrent-load benchmark of the RPC service: sharded read path
# (epoch-keyed prediction cache, lock-free reads) vs the single-lock
# baseline on a 95% read mix. Records throughput, p50/p99, and cache
# hit/miss counts into BENCH_cbes.json (rps and p99_ms are
# regression-gated by bench-compare) and fails unless the sharded path
# is at least 10x the baseline with a >= 90% cache hit rate.
service-bench:
	$(GO) run ./cmd/servicebench -clients 16 -duration 5s -min-speedup 10 -min-hit-rate 90 -o BENCH_cbes.json

# Short service-bench for CI: quick smoke with a relaxed speedup floor
# (shared-runner timing is noisy), no snapshot update.
service-bench-short:
	$(GO) run ./cmd/servicebench -clients 8 -duration 1s -min-speedup 3 -o ""

# End-to-end observability smoke test: boots cbesd with -debug-listen,
# drives a scheduling request, asserts /healthz plus non-zero core
# series in /metrics, follows the printed trace ID through /debug/trace
# and the decision flight recorder, closes the predicted-vs-actual loop
# (report outcome -> cbesctl accuracy -> /debug/accuracy, drift alarm
# flip), and checks clean SIGTERM shutdown.
obs-smoke:
	sh scripts/obs_smoke.sh

# End-to-end overload-protection smoke test (DESIGN.md §15): boots cbesd
# with adaptive admission on the test topology profiling a phased (many-
# segment) app, offers 8x the probed capacity open-loop with 250ms
# deadlines, and asserts the goodput floor held, the limiter gauges are
# live, and brownout degradation engaged.
overload-smoke:
	sh scripts/overload_smoke.sh

# Fast cross-layer fault gate: the fault-injection, health, degraded-mode,
# and service-hardening tests across every affected package, in short mode
# under the race detector. Quick signal before ci's full race suite.
faults-smoke:
	$(GO) test -short -race -timeout 10m \
		-run 'Fault|Crash|Degrade|Sensor|Stall|Health|Stale|Down|Infeasible|Evacuat|NoNoise|Busy|Panic|Retr|Drain|Soak|MaxClients|Probe|Readyz|Injector|RandomSchedule' \
		./internal/faults/ ./internal/vcluster/ ./internal/simnet/ \
		./internal/monitor/ ./internal/core/ ./internal/schedule/ \
		./internal/remap/ ./internal/service/ ./internal/obs/

# Short fuzz pass over the delta-evaluation invariants.
fuzz:
	$(GO) test -run xxx -fuzz FuzzEnergyDelta -fuzztime 30s ./internal/core/
