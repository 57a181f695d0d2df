GO ?= go

.PHONY: build test verify ci stress bench bench-quick bench-compare obs-smoke overload-smoke faults-smoke fuzz

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
	$(MAKE) obs-smoke
	$(MAKE) overload-smoke
	$(GO) test -race -timeout 45m ./...
	$(MAKE) stress
	$(MAKE) bench-quick

# Process-lifecycle tests, twenty times each under the race detector: the
# simulator's start, park, kill, panic and Shutdown paths with the
# process-wide coroutine list that engines on different goroutines share,
# mpisim worlds that panic, deadlock, spawn and reuse engines, SA
# restarts on the worker pool (parallel ≡ serial, a panicking restart,
# cancellation and deadlines), and the service's drain and shutdown. A
# race that shows once in several runs shows here.
stress:
	$(GO) test -race -count=20 -run 'Proc|Shutdown|Kill|Coroutine|EventOrderGolden|Signal|Spawn|Sleep|Reset' ./internal/des/
	$(GO) test -race -count=20 -run 'Panics|Deadlock|WorldReuse|ConcurrentWorlds|DynamicWorld|AwaitFinished|SpawnedWorld|WorldResultAfterWaitIn' ./internal/mpisim/
	$(GO) test -race -count=20 -run 'Parallelism|Panic|Cancel|Deadline' ./internal/schedule/
	$(GO) test -race -count=20 -run 'Soak|Drain|ServeCleanClose|RecoversProcessPanic|RetriesAcrossServerRestart' ./internal/service/

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

# Fast cross-layer fault pass for local use: the fault-injection, health,
# degraded-mode, and service-hardening tests across every affected
# package, in short mode under the race detector. Not a ci step — ci's
# full -race ./... pass runs every one of these tests.
faults-smoke:
	$(GO) test -short -race -timeout 10m \
		-run 'Fault|Crash|Degrade|Sensor|Stall|Health|Stale|Down|Infeasible|Evacuat|NoNoise|Busy|Panic|Retr|Drain|Soak|MaxClients|Probe|Readyz|Injector|RandomSchedule' \
		./internal/faults/ ./internal/vcluster/ ./internal/simnet/ \
		./internal/monitor/ ./internal/core/ ./internal/schedule/ \
		./internal/remap/ ./internal/service/ ./internal/obs/

# Short fuzz passes: the delta-evaluation invariants, topology specs as
# hostile input (an error or a valid topology, never a panic or a multi-MB
# build), traces as hostile input (an error or a profile whose λs
# compute), and RPC arguments as hostile input (an error or a well-formed
# reply, never a recovered panic).
fuzz:
	$(GO) test -run xxx -fuzz FuzzEnergyDelta -fuzztime 30s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzFromSpec -fuzztime 30s ./internal/cluster/
	$(GO) test -run xxx -fuzz FuzzFromTrace -fuzztime 30s ./internal/profile/
	$(GO) test -run xxx -fuzz FuzzHandlers -fuzztime 30s ./internal/service/
