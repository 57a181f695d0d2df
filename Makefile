GO ?= go

.PHONY: build test verify ci stress bench-quick faults-smoke fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Tier-1 verification (ROADMAP.md): everything must build and pass.
verify: build test

# CI target: a gofmt check (a file gofmt would rewrite fails the pass),
# then vet plus the full suite under the race detector — the fast path
# shares evaluators across scheduler workers and the experiment lab fans
# trials across cores, so racy regressions must fail loudly. The
# suite includes cmd/cbesd's TestDaemon, which builds cbesd and cbesctl
# and drives a real daemon end to end (observability loop, 8x overload,
# SIGTERM). The one-iteration bench pass exercises the benchmark bodies
# (also under -race) without paying for steady-state timing. The harness
# under benchmark/ is a module of its own, outside ./...: vetting and
# testing it here makes a core/service signature drift that breaks it
# fail CI rather than the next benchmark run. A 20 s fuzz of the scorer's
# Apply/Undo journal runs on every CI pass: the delta path's exactness is
# the property every scheduler rests on, and the fixed seeds alone cover
# only a handful of move sequences. Its fixture repeats one segment's
# message groups in another, so the step also covers Θ rows shared across
# segments, and Apply/Undo moves that touch them. A 10 s fuzz of stored
# profiles follows: building an evaluator divides a stored B by the Θ it derives from stored
# counts and sizes, so bytes from disk reach a division on every boot. A
# 10 s fuzz of traces comes next: FromTrace and NewEvaluator each refuse a
# profiling node without a measured speed, and FromTrace a process off its
# mapped node, so its invariant (an accepted trace builds an evaluator,
# which gives a finite estimate) keeps the two refusals in step. A 10 s
# fuzz of the RPC handlers closes the pass: Evaluate and Compare share one
# admission, brownout and ledger path, and every served prediction ID must
# join its outcome; the read-outs take the fuzzed strings as filters, and
# Decisions parses its trace filter from them. The fuzz steps skip
# minimizing new inputs (-fuzzminimizetime 0): the seeds are whole encoded
# profiles and traces, and Go's default minute of minimizing each new
# input ate the steps' time budget, leaving them stalled at 0 execs/s.
ci:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...
	$(GO) test -race -timeout 45m ./...
	$(GO) test -run '^$$' -fuzz FuzzEnergyDelta -fuzztime 20s -fuzzminimizetime 0 ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzDecodeProfile -fuzztime 10s -fuzzminimizetime 0 ./internal/profile/
	$(GO) test -run '^$$' -fuzz FuzzFromTrace -fuzztime 10s -fuzzminimizetime 0 ./internal/profile/
	$(GO) test -run '^$$' -fuzz FuzzHandlers -fuzztime 10s -fuzzminimizetime 0 ./internal/service/
	$(MAKE) stress
	$(MAKE) bench-quick

# Process-lifecycle tests, twenty times each under the race detector: the
# simulator's start, park, kill, panic and Shutdown paths with the
# process-wide coroutine list that engines on different goroutines share,
# mpisim worlds that panic, deadlock and reuse engines, SA
# restarts on the worker pool (parallel ≡ serial, a panicking restart,
# cancellation and deadlines), the service's drain and shutdown, and
# identical Schedule requests searching side by side on one evaluator,
# each under its own deadline, and the accuracy ledger's ID-indexed
# pending ring under concurrent Begin, Report and eviction. A race that
# shows once in several runs shows here.
stress:
	$(GO) test -race -count=20 -run 'Proc|Shutdown|Kill|Coroutine|EventOrderGolden|Signal|Spawn|Sleep|Reset' ./internal/des/
	$(GO) test -race -count=20 -run 'Panics|Deadlock|WorldReuse|ConcurrentWorlds|WorldResultAfterWaitIn' ./internal/mpisim/
	$(GO) test -race -count=20 -run 'Parallelism|Panic|Cancel|Deadline' ./internal/schedule/
	$(GO) test -race -count=20 -run 'Soak|Drain|ServeCleanClose|RecoversProcessPanic|RetriesAcrossServerRestart|IdenticalSchedulesDeterministic|ScheduleKeepsOwnDeadline' ./internal/service/
	$(GO) test -race -count=20 -run 'ConcurrentBeginReport' ./internal/accuracy/

# Smoke-run the benchmark bodies once under the race detector. This is a
# correctness gate (pooled events + parallel trials must be race-clean on
# the bench paths too), not a timing run; -short drops the multi-second
# experiment-suite benches, which the race suite already covers.
bench-quick:
	$(GO) test -short -run xxx -bench . -benchtime 1x -race -timeout 30m ./...

# Fast cross-layer fault pass for local use: the fault-injection, health,
# degraded-mode, and service-hardening tests across every affected
# package, in short mode under the race detector. Not a ci step — ci's
# full -race ./... pass runs every one of these tests.
faults-smoke:
	$(GO) test -short -race -timeout 10m \
		-run 'Fault|Crash|Degrade|Sensor|Stall|Health|Stale|Down|Infeasible|Evacuat|NoNoise|Busy|Panic|Retr|Drain|Soak|MaxClients|Probe|Injector|RandomSchedule' \
		./internal/faults/ ./internal/vcluster/ ./internal/simnet/ \
		./internal/monitor/ ./internal/core/ ./internal/schedule/ \
		./internal/remap/ ./internal/service/ ./internal/obs/

# Short fuzz passes: the delta-evaluation invariants, topology specs as
# hostile input (an error, for a torus or dragonfly spec too, or a valid
# testbed or fat tree, never a panic or a multi-MB build), traces as hostile input (an error or a profile that builds an
# evaluator, λs and Speed_profiles derived, with a finite estimate), stored profiles as hostile input (an error or a finite
# estimate), stored network models as hostile input (an error or finite,
# non-negative latencies), and RPC arguments, the read-outs' filters
# included, as hostile input (an error or a well-formed reply, never a
# recovered panic).
fuzz:
	$(GO) test -run xxx -fuzz FuzzEnergyDelta -fuzztime 30s ./internal/core/
	$(GO) test -run xxx -fuzz FuzzFromSpec -fuzztime 30s ./internal/cluster/
	$(GO) test -run xxx -fuzz FuzzFromTrace -fuzztime 30s ./internal/profile/
	$(GO) test -run xxx -fuzz FuzzDecodeProfile -fuzztime 30s ./internal/profile/
	$(GO) test -run xxx -fuzz FuzzDecodeModel -fuzztime 30s ./internal/netmodel/
	$(GO) test -run xxx -fuzz FuzzHandlers -fuzztime 30s ./internal/service/
