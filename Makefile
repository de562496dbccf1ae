# Development targets for the sicost repo. `make ci` is the gate a
# change must pass before review: build, vet, full tests, and the race
# detector over every package.

GO ?= go

.PHONY: all build cross test short vet race stress fuzz fuzzsmoke bench benchspine chaos crash walfuzz checkfuzz checksmoke docs trace-smoke figsmoke overload servefuzz servechaos size ci

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

# The second line re-runs the deterministic scheduler, whose harness
# goroutines hand transactions back and forth, five more times to vary
# the schedules (-short: the full exploration already ran once above).
race:
	$(GO) test -race ./...
	$(GO) test -race -short -count=5 ./internal/detsim

# Concurrency stress suite (goroutine fleets + property-based lock-table
# equivalence, lock-free chain readers against pruning writers, the
# prune-visibility property and table walks racing inserts in storage,
# checkpoints streaming under an overwrite storm in engine, committers
# leading, queueing to lead, withdrawing and committing async against
# one log in wal, plus the MPL-16 online-checker subscription) under the
# race detector, twice, to vary schedules. The second line runs the
# commit-path suites, and the orderings the flush loop's one locked
# section per window must keep (TestOrdering*), on one processor, where a
# committer never polls for another (wal.WAL.Spin) and every wait is the
# blocking one. Both lines run TestStressBeginCloseDrain (engine: Begin,
# Commit and Abort racing Close over the processor slots) and
# TestStressTxnReuse (engine: DB.Txn's recycled handles beside Begin's,
# and panics out of a transaction) by their TestStress prefix. It leaves
# out the SSI transfer storm: its clients retry without back-off, and on
# one processor they can stop making progress (ROADMAP, the SSI item).
stress:
	$(GO) test -race -count=2 -run 'TestStress|TestQuick' ./internal/storage ./internal/wal ./internal/engine ./internal/workload
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'TestStress|TestLead|TestHeir|TestOrdering' -skip 'TestStressTransfersConserveTotal/SSI' ./internal/wal ./internal/engine

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
# survive; only the un-acked tail may vanish). The third keeps
# checkpointing and segment retirement live inside the bursts, adding
# crashes mid-checkpoint (wal/ckpt-rows) and mid-retirement (wal/retire).
crash:
	$(GO) run ./cmd/smallbank -crash -crash-cycles 10 -mode 2pl -seed 7 > /dev/null
	$(GO) run ./cmd/smallbank -crash -crash-cycles 10 -crash-async -seed 11 > /dev/null
	$(GO) run ./cmd/smallbank -crash -crash-cycles 10 -crash-fuzzy -seed 13 > /dev/null
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

# Figure smoke: every experiment cmd/sibench knows, at a toy profile
# (seconds in all); each one that measures series must leave its CSV,
# the relative-panel figures 5, 8 and 9 included.
FIGSMOKE_CSV = fig4 fig5 fig6 fig7 fig8 fig9 ablation-fixedrow ablation-groupcommit \
	ablation-engine ablation-hotspot ablation-latency
figsmoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/sibench -exp all -scale 0.1 -ramp 10ms -measure 60ms -reps 1 -mpls 2 \
		-customers 300 -q -csv "$$dir" > /dev/null && \
	for id in $(FIGSMOKE_CSV); do \
		test -s "$$dir/$$id.csv" || { echo "figsmoke: sibench wrote no $$id.csv" >&2; exit 1; }; \
	done

# The Go microbenchmarks, six runs each so a reader sees the spread
# (what each set prices is said above its Benchmark function;
# BenchmarkCommitDurable matches the serial, MPL 2 and MPL 16 sets;
# BenchmarkSmallBankDurable's clients=2 over clients=1 is what a second
# processor buys a durable transaction, and its allocs/op what the
# program path allocates per transaction). They are
# printed, not archived: the numbers a change is judged on are the
# benchmark's (benchspine/: tps, setup_s and the per-layer metrics of
# BENCHMARK.json), and a per-layer metric exists for most of these —
# bench.trace_overhead_share, engine.commit_rw_ns, storage.lock_cycle_ns,
# server.*_ns.
bench:
	$(GO) test -run XXX -bench 'BenchmarkCommitParallel|BenchmarkCommitTraced|BenchmarkCommitDurable|BenchmarkBeginAdmitted|BenchmarkCommitCheckpointMPL16|BenchmarkRowLock' \
		-benchtime 1s -count 6 -benchmem ./internal/engine
	$(GO) test -run XXX -bench 'BenchmarkOnlineCheck|BenchmarkIngest' -benchtime 1s -count 6 -benchmem ./internal/onlinecheck
	$(GO) test -run XXX -bench 'BenchmarkServerRoundTrip' -benchtime 1s -count 6 -benchmem ./internal/server
	$(GO) test -run XXX -bench 'BenchmarkLoad' -benchtime 5x -count 6 -benchmem ./internal/smallbank
	$(GO) test -run XXX -bench 'BenchmarkSmallBankDurable' -benchtime 2s -count 6 -benchmem ./internal/smallbank
	$(GO) test -run XXX -bench 'BenchmarkRowMap' -benchtime 1s -count 6 -benchmem ./internal/storage

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

ci: build cross docs test benchspine race stress fuzzsmoke chaos crash walfuzz checkfuzz checksmoke trace-smoke figsmoke overload servefuzz servechaos
