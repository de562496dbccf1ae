# Development targets for the sicost repo. `make ci` is the gate a
# change must pass before review: build, vet, full tests, and the race
# detector over every package.

GO ?= go

.PHONY: all build cross test short vet race stress fuzz fuzzsmoke bench benchspine chaos crash walfuzz checkfuzz checksmoke docs trace-smoke overload servefuzz servechaos size ci

all: build test

build:
	$(GO) build ./...

# The log's wait for a simulated sync is build-tagged (nanosleep on
# Linux, time.Sleep elsewhere — internal/wal/wait_*.go), and only the
# Linux side is ever run here: compile the tree for a target that takes
# the other side so it cannot rot.
cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows $(GO) vet ./internal/wal

test:
	$(GO) test ./...

# Quick loop: skips the stochastic anomaly hunt and long explorations.
short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Concurrency stress suite (goroutine fleets + property-based lock-table
# equivalence, lock-free chain readers against pruning writers and the
# prune-visibility property in storage, checkpoints streaming under an
# overwrite storm in engine, committers leading, queueing to lead,
# withdrawing and committing async against one log in wal, plus the
# MPL-16 online-checker subscription) under the race detector, twice, to
# vary schedules.
stress:
	$(GO) test -race -count=2 -run 'TestStress|TestQuick' ./internal/storage ./internal/wal ./internal/engine ./internal/workload

# Short fuzz smoke on both targets (30s each); CI-friendly bound.
# FuzzSQLMiniParse also holds the pull lexer to the two-pass reference
# kept in its test file: same tokens, same errors, lexing error first.
fuzz:
	$(GO) test -fuzz FuzzCheckerHistories -fuzztime 30s ./internal/detsim
	$(GO) test -fuzz FuzzSQLMiniParse -fuzztime 30s ./internal/sqlmini

# Even shorter fuzz pass for the CI gate (10s per target).
fuzzsmoke:
	$(GO) test -fuzz FuzzCheckerHistories -fuzztime 10s ./internal/detsim
	$(GO) test -fuzz FuzzSQLMiniParse -fuzztime 10s ./internal/sqlmini

# Seeded chaos smoke: the default fault plan against a small SmallBank
# under 2PL with the online checker attached; exits nonzero if any
# standing invariant (conservation, lock audit, serializability) breaks.
chaos:
	$(GO) run ./cmd/smallbank -chaos -check -mode 2pl -customers 200 -hotspot 20 \
		-mpl 8 -ramp 100ms -measure 500ms -retry backoff -seed 7 > /dev/null
	$(GO) test -short -count=1 -run 'TestChaos|TestInjected|TestFaulted' ./internal/workload ./internal/detsim

# Crash/recover chaos on the segmented log: rotate a panic fault through
# the commit path (including mid-WAL-flush, between a window's append
# and its sync, and at segment rotation), recover from the surviving log
# image after every crash and audit the durability contract — acked
# state survives, unacked state vanishes, money is conserved, recovery
# is idempotent. The second smallbank run exercises asynchronous commit,
# auditing the durable-prefix contract instead (acked-durable commits
# survive; only the un-acked tail may vanish).
crash:
	$(GO) run ./cmd/smallbank -crash -crash-cycles 10 -mode 2pl -seed 7 > /dev/null
	$(GO) run ./cmd/smallbank -crash -crash-cycles 10 -crash-async -seed 11 > /dev/null
	$(GO) test -race -count=1 -run TestCrashChaos ./internal/workload

# Fuzz the recovery pipeline: arbitrary bytes through the frame decoder
# and the full engine rebuild, arbitrary multi-segment layouts through
# the segment classifier, and arbitrary strings through the
# segment-name parser; none may panic.
walfuzz:
	$(GO) test -fuzz 'FuzzRecoverLog$$' -fuzztime 10s ./internal/wal
	$(GO) test -fuzz FuzzRecoverSegments -fuzztime 10s ./internal/wal
	$(GO) test -fuzz FuzzParseSegmentName -fuzztime 5s ./internal/wal

# Fuzz the online windowed checker: arbitrary event streams (reordered,
# truncated, duplicated, unknown kinds) must never panic, stay
# deterministic, and never produce a false verdict on a valid stream.
checkfuzz:
	$(GO) test -fuzz FuzzOnlineCheck -fuzztime 10s ./internal/onlinecheck

# Online-checker smoke: short online-checked SmallBank runs across the
# isolation spectrum — bare SI (anomalies allowed and merely reported),
# SFU promotion on the commercial platform, SSI, and S2PL; for the
# serializability-guaranteeing configurations the live verdict gates the
# exit status.
checksmoke:
	$(GO) run ./cmd/smallbank -check -mode si -strategy SI -mpl 8 -customers 300 \
		-hotspot 20 -ramp 50ms -measure 300ms -seed 7 > /dev/null
	$(GO) run ./cmd/smallbank -check -mode si -strategy PromoteWT-sfu -platform commercial \
		-mpl 8 -customers 300 -hotspot 20 -ramp 50ms -measure 300ms -seed 7 > /dev/null
	$(GO) run ./cmd/smallbank -check -mode ssi -mpl 8 -customers 300 \
		-hotspot 20 -ramp 50ms -measure 300ms -seed 7 > /dev/null
	$(GO) run ./cmd/smallbank -check -mode 2pl -mpl 8 -customers 300 \
		-hotspot 20 -ramp 50ms -measure 300ms -seed 7 > /dev/null

# Documentation gate: vet plus cmd/doclint — every package must open
# with a conventional godoc comment, and every docs/*.md
# cross-reference (internal/ paths, cmd flags, sicost_* expvar names)
# must resolve against the code.
docs: vet
	$(GO) run ./cmd/doclint ./

# Trace smoke: a short traced SmallBank run, then full schema +
# lifecycle-invariant validation of the JSONL output (cmd/tracecheck).
trace-smoke:
	$(GO) run ./cmd/smallbank -mpl 8 -customers 500 -hotspot 50 -ramp 50ms \
		-measure 300ms -seed 11 -trace trace_smoke.jsonl > /dev/null
	$(GO) run ./cmd/tracecheck -q trace_smoke.jsonl
	rm -f trace_smoke.jsonl

# Parallel-commit scaling benchmarks; regenerates BENCH_engine.json with
# the committed pre-sharding baseline alongside the current numbers and
# the tracing overhead set (off / installed-but-disabled / capturing).
bench:
	$(GO) test -run XXX -bench 'BenchmarkCommitParallel' -benchtime 1s -benchmem ./internal/engine | tee bench_latest.txt
	$(GO) test -run XXX -bench 'BenchmarkCommitTraced' -benchtime 1s -count 3 -benchmem ./internal/engine | tee bench_traced.txt
	$(GO) test -run XXX -bench 'BenchmarkCommitDurable' -benchtime 1s -count 3 -benchmem ./internal/engine | tee bench_durable.txt
	$(GO) test -run XXX -bench 'BenchmarkOnlineCheck|BenchmarkIngest' -benchtime 1s -count 3 -benchmem ./internal/onlinecheck | tee bench_check.txt
	$(GO) test -run XXX -bench 'BenchmarkBeginAdmitted' -benchtime 1s -count 3 -benchmem ./internal/engine | tee bench_admission.txt
	$(GO) test -run XXX -bench 'BenchmarkCommitCheckpointMPL16' -benchtime 1s -count 3 -benchmem ./internal/engine | tee bench_ckpt.txt
	$(GO) test -run XXX -bench 'BenchmarkServerRoundTrip' -benchtime 1s -count 3 -benchmem ./internal/server | tee bench_server.txt
	$(GO) test -run XXX -bench 'BenchmarkLoad' -benchtime 5x -count 3 ./internal/smallbank | tee bench_load.txt
	$(GO) test -run XXX -bench 'BenchmarkRowLock' -benchtime 1s -count 3 -benchmem ./internal/engine | tee bench_rowlock.txt
	$(GO) run ./cmd/benchjson -o BENCH_engine.json \
		-note "Parallel commit benchmark, uniform keys; baseline = pre-sharding global-mutex design. The tracing set measures the serial commit cycle with the lifecycle recorder absent (off), installed-but-disabled (the <=5% budget: one atomic load per emission point), and capturing (enabled). The durable set prices the WAL: latency-only (no device) vs in-memory device (encoding + CRC32C framing); the CommitDurableMPL16 group prices group commit at 16 committers against a file device with a simulated 200us sync (which takes 200us since PR 13; under time.Sleep it took about 1.1ms, so these rows and the CommitCheckpointMPL16 ones, re-recorded at PR 13, do not compare with recordings before it; both were recorded again at PR 19, when the simulated device began to hold each sync for the committers the last one acknowledged: 8.0 -> 10-14 commits/sync, and the whole durable set at PR 20, when a sync committer began to flush on its own goroutine and a commit frame became one allocation: CommitDurable/mem 5.6us and 17 allocs -> 2.8us and 12, the MPL16 rows 15 -> 11 allocs) — coalesced windows vs asynchronous commit vs a segment-rotated log, with commits/sync as the coalescing gauge. The checking set prices the online isolation checker: off/traced/checked time the same commit cycle with ring consumption off-timer (traced->checked is the <=5% commit-path budget), and BenchmarkIngest reports the checker's own off-path cost per event. The admission set prices the adaptive admission gate at Begin: off (Config.Admission nil, one pointer branch — the <=5% acceptance budget against the plain commit cycle) vs on (uncontended fast-path slot acquire/release around each transaction, AIMD controller ticking in the background). The checkpoint set prices checkpoint interference at 16 committers against a file device with a large cold table: none (no checkpoints, the baseline) and fuzzy (the log-growth scheduler streaming incremental links concurrently with commits); p99-ns is the acceptance gauge — fuzzy must stay within 2x of none. The server set prices one full network round-trip — request encode, loopback TCP, line parse, statement execute, response encode/decode — through cmd/sisqld's serving stack (internal/server) with an autocommit single-row SELECT. The server set was recorded again at PR 21, when the response encoder stopped going through reflection, the lexer stopped building a token slice and result rows stopped being boxed: 25 -> 8 allocs/op and 2112 -> 616 B/op; its ns/op is mostly two system calls and a wake-up each way and moves with the host (8.3-12.6us here, 10.9-12.7us in the recording it replaces). The load set (PR 23) prices smallbank.Load at the paper's 18000 customers on the engine cmd/sisqld opens (PostgreSQL profile, free CPUs, 2.5ms simulated sync, no device) and on embed-durable's (segmented log in memory, checkpoint scheduler on): ns, allocations and bytes per inserted row of 72001; before the row lock moved into the row, the loader's commits went asynchronous and Insert stopped leaking its record it read 2550-2870 ns, 5.23 allocs and 860 B per row on the first and 2470-2590 ns, 5.26 allocs and 1337 B on the second. The rowlock set prices one write-lock cycle (acquire + transaction-end release) on its three paths: thin (an SI mode, uncontended: the row's owner word), inflated (a second writer moves the hold into the table, queues and gives up at once: the bookkeeping of a conflict without the parking) and table-2pl (Strict2PL: every request through the table, the cycle every mode paid before PR 23)." \
		baseline=bench/baseline_preshard.txt sharded=bench_latest.txt tracing=bench_traced.txt durable=bench_durable.txt checking=bench_check.txt admission=bench_admission.txt checkpoint=bench_ckpt.txt server=bench_server.txt load=bench_load.txt rowlock=bench_rowlock.txt
	rm -f bench_latest.txt bench_traced.txt bench_durable.txt bench_check.txt bench_admission.txt bench_ckpt.txt bench_server.txt bench_load.txt bench_rowlock.txt

# The benchmark (benchspine/) is a module of its own, so the root
# build and vet never compile it: this step is what notices an API it
# depends on disappearing.
benchspine:
	cd benchspine && $(GO) vet ./... && $(GO) test -short ./...

# Overload smoke: a short open-system run at an offered load well past
# saturation with the adaptive admission gate and per-transaction
# deadlines on, online-checked — the admission arm of EXPERIMENTS.md's
# overload table: a 16-slot wait queue and budgeted backoff retries (with
# the default 4096-slot queue every admitted transaction has spent its
# deadline waiting, and the run commits nothing). The binary exits
# nonzero if the admission gate leaks a slot or waiter after the drain,
# if nothing commits inside the measured window, or if the checker finds
# an isolation violation; a second run races shutdown against a full
# admission queue under the race detector.
overload:
	$(GO) run ./cmd/smallbank -rate 4000 -admission -admission-queue 16 -deadline 100ms \
		-retry backoff -retry-shared-rate 200 \
		-customers 300 -hotspot 20 -ramp 100ms -measure 400ms -seed 7 -check > /dev/null
	$(GO) test -race -count=1 -run 'TestAdmission|TestRunArrivals|TestRunRejectsBadConfig|TestInteractionAccountsAlike' ./internal/engine ./internal/workload

# Fuzz the network server's wire layer: arbitrary bytes through the
# request decoder (which must answer as the json.Unmarshal-only reference
# does) and through a full connection drive; the handler must neither
# panic nor wedge, must leak no transaction on teardown, and every
# response line it writes must decode with encoding/json.
servefuzz:
	$(GO) test -fuzz FuzzServerProtocol -fuzztime 10s ./internal/server

# Server chaos gate: repeated cycles of hundreds of churning TCP
# clients (mid-transaction RST kills, idle lapses, slow transactions)
# against a live server with wire faults armed and a mid-storm drain,
# alternating 2PL and SSI. Audits money conservation, zero leaked
# transactions/locks/gate slots, and a clean online-checker verdict.
servechaos:
	SERVECHAOS_FULL=1 $(GO) test -count=1 -timeout 600s -run TestServerChaos ./internal/workload
	$(GO) test -race -count=1 ./internal/server

# What a simplicity review counts, so that it counts instead of
# estimating: non-test Go lines outside the frozen benchmark, flag
# definitions per command, and fields of the four Config structs. Quote
# the output at the parent and at the change in CHANGES.md.
size:
	@printf 'non-test Go lines outside benchspine/: '
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchspine/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 cat | wc -l
	@for d in cmd/*/; do \
		printf 'flags  %-16s %s\n' $$d $$(find $$d -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat \
			| grep -v '^[[:space:]]*//' | grep -cE '(flag|fs)\.[A-Z][A-Za-z0-9]*\((&[a-zA-Z.]+, )?"'); \
	done
	@for p in engine wal server workload; do \
		printf 'fields %-16s %s\n' $$p.Config $$(find internal/$$p -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat \
			| awk '/^type Config struct \{/{f=1;next} f&&/^\}/{f=0} f&&/^\t[A-Za-z_]/{sub(/\/\/.*/,""); n+=gsub(/,/,",")+1} END{print n}'); \
	done

ci: build cross docs test benchspine race stress fuzzsmoke chaos crash walfuzz checkfuzz checksmoke trace-smoke overload servefuzz servechaos
