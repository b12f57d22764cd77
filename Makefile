# lsds build/verify entry points. `make tier1` is the gate CI runs.

GO ?= go
TRACE_OUT ?= /tmp/lsds_trace_e5.json
CKPT_OUT ?= /tmp/lsds_phold.ckpt

.PHONY: all build test tier1 vet race bench benchjson fuzz trace-smoke checkpoint-smoke chaos-smoke dist-smoke obs-smoke balance-smoke crash-smoke threads-smoke clean

all: tier1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check the packages with real concurrency: the parallel
# federation, the shared execution pool, the TCP-distributed engine,
# the fault injector, the engine they drive, and the
# optimistic/checkpoint layers they build on.
race:
	$(GO) test -race ./internal/parsim/... ./internal/pool/... ./internal/des/... ./internal/distsim/... ./internal/chaos/... ./internal/optsim/... ./internal/checkpoint/...

# tier1 is the acceptance gate: build + full tests, plus vet and the
# race detector over the concurrent packages.
tier1: build test vet race

bench:
	$(GO) test -bench 'E3|PHOLD|Federation|ScheduleExecute' -benchmem -run '^$$' ./...

# Machine-readable hot-path allocation report (includes the PR-10
# intra-worker pool cases: WorkerWindowParallel dense/skewed at pool
# widths 1/2/4; see BENCH_8.json).
benchjson:
	$(GO) run ./cmd/experiments -benchjson BENCH_8.json

# Short fuzz passes over the decoders that read bytes from the wire or
# from disk: the distsim frame codec, the distsim control-plane journal
# replay, and the parsim message op argument (pending messages ride in
# checkpoint files). Arbitrary bytes must decode to a typed error or a
# valid value — never a panic or an absurd allocation.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalFrame -fuzztime 10s ./internal/distsim/
	$(GO) test -run '^$$' -fuzz FuzzLoadJournal -fuzztime 10s ./internal/distsim/
	$(GO) test -run '^$$' -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/parsim/

# trace-smoke runs a quick traced E5 federation and validates the
# Chrome trace output: ObserveE5 re-reads the written file through a
# strict JSON parser and fails if it does not parse or is missing
# tracks, so this target is a true end-to-end check of the exporter.
trace-smoke:
	$(GO) run ./cmd/experiments -quick -trace $(TRACE_OUT)
	rm -f $(TRACE_OUT)

# checkpoint-smoke is the end-to-end fault-tolerance check: a PHOLD run
# is checkpointed at a window barrier, resumed in a second process, and
# -verify replays the whole run uninterrupted and fails on any
# divergence; then the kill-a-worker recovery e2e runs under -race.
checkpoint-smoke:
	$(GO) run ./cmd/lssim -sim phold -checkpoint $(CKPT_OUT)
	$(GO) run ./cmd/lssim -sim phold -resume $(CKPT_OUT) -verify
	rm -f $(CKPT_OUT)
	$(GO) test -race -count=1 -run 'TestKillWorkerMidWindowRecovers|TestCoordinatorFileResume' ./internal/distsim/

# chaos-smoke is the end-to-end robustness check: a 100-window
# distributed PHOLD run over real TCP with 5% of all messages dropped
# in both directions plus two scripted connection resets (forced
# session-resume reconnects), where -verify replays the run fault-free
# in a single process and fails on any divergence — the wire may burn,
# the answer may not change. The chaos unit suite then runs under
# -race.
chaos-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 100 \
		-chaos-seed 4 -chaos-drop 0.05 -chaos-reset-at 9,23 -verify
	$(GO) test -race -count=1 ./internal/chaos/

# dist-smoke is the end-to-end check of the pipelined window engine:
# a dense distributed PHOLD run and a sparse one with window skipping
# enabled, each -verify'd bit-identical against the single-process
# reference, then the skipping + pooled-wire suites under -race.
dist-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 100 -verify
	$(GO) run ./cmd/lssim -sim distphold -horizon 400 -jobs 2 \
		-delay-factor 64 -skip-idle -verify
	$(GO) test -race -count=1 \
		-run 'TestSparseSkip|TestSkipCheckpointResumeAcrossGap|TestPooledWireZeroAlloc' \
		./internal/distsim/

# obs-smoke is the end-to-end check of cluster observability: a
# chaos-faulted 4-worker distphold run with full telemetry on —
# -trace writes the merged Perfetto timeline (validated in-process by
# the strict re-parser before it hits disk), -metrics-addr brings up
# the live JSON endpoint (self-probed after the run), -histo prints
# cluster histograms, and -verify pins the run bit-identical to the
# fault-free single-process reference — observability changes no
# output bit. The obs suites then run under -race.
obs-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 100 -workers 4 \
		-chaos-seed 7 -chaos-drop 0.03 -chaos-reset-at 11 \
		-trace $(TRACE_OUT) -metrics-addr 127.0.0.1:0 -histo -verify
	rm -f $(TRACE_OUT)
	$(GO) test -race -count=1 \
		-run 'TestClusterObs|TestStatsIncomplete|TestObsPiggybackZeroAlloc|TestMergeTracks|TestHistogramDelta|TestServeMetrics' \
		./internal/distsim/ ./internal/obs/ ./internal/monitoring/

# balance-smoke is the end-to-end check of adaptive partitioning: a
# skewed distributed PHOLD run (both hot LPs start on worker 0) with
# -rebalance must migrate LPs mid-run yet stay -verify'd bit-identical
# to the single-process reference; the same run then repeats with two
# scripted connection resets, forcing session resume to replay
# migration frames under chaos. The e2e suites cover rollback recovery
# across a migration and checkpoint file resume into the migrated
# layout, under -race.
balance-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 24 \
		-skew-hot 2 -skew 4 -rebalance -rebalance-every 2 -verify
	$(GO) run ./cmd/lssim -sim distphold -horizon 24 \
		-skew-hot 2 -skew 4 -rebalance -rebalance-every 2 \
		-chaos-seed 4 -chaos-reset-at 9,23 -verify
	$(GO) test -race -count=1 \
		-run 'TestRebalanceUnderChaos|TestRebalanceRecoveryAcrossMigration|TestRebalanceFileResumeAcrossMigration' \
		./internal/distsim/

# crash-smoke is the end-to-end proof that the coordinator is no
# longer a single point of failure: a three-process distributed run has
# its coordinator killed -9 mid-flight, a fresh coordinator process
# restarts from the durable control-plane journal and re-adopts the
# parked workers, and -verify pins the finished run bit-identical to a
# single-process replay. The crash-restart, park give-up, and
# heartbeat-vs-partition suites then run under -race (the race target
# also covers them wholesale via ./internal/distsim/...).
crash-smoke:
	bash scripts/crash_smoke.sh
	$(GO) test -race -count=1 \
		-run 'TestCrashRestart|TestWorkerParkGiveUp|TestPartition|TestJournal' \
		./internal/distsim/

# threads-smoke is the end-to-end check of multicore workers: a
# two-worker distributed PHOLD run with a 4-goroutine execution pool
# inside each worker must be -verify'd bit-identical to the
# single-process reference — per-LP sends are buffered thread-locally
# and merged in canonical order at the barrier, so the pool changes no
# output bit. The same holds with skew + live rebalancing + scripted
# connection resets stacked on top. The pool package and the threads
# e2e suites (dense, sparse skip, chaos, checkpoint resume, migration,
# crash-restart, heartbeat liveness) then run under -race.
threads-smoke:
	$(GO) run ./cmd/lssim -sim distphold -horizon 100 -workers 2 -threads 4 -verify
	$(GO) run ./cmd/lssim -sim distphold -horizon 24 -workers 2 -threads 4 \
		-skew-hot 2 -skew 4 -rebalance -rebalance-every 2 \
		-chaos-seed 4 -chaos-reset-at 9 -verify
	$(GO) test -race -count=1 ./internal/pool/
	$(GO) test -race -count=1 -run 'TestThreads' ./internal/distsim/

clean:
	$(GO) clean ./...
