package smallbank

import (
	"testing"

	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/trace"
)

// recordHistory installs a trace recorder on db and pumps it on a
// subscription that keeps the whole stream, so a run may outlast the
// rings. The returned function ends the pump and analyzes the committed
// history; a recorder that dropped events has no history to judge.
func recordHistory(t testing.TB, db *engine.DB) (analyze func() *checker.Report) {
	t.Helper()
	rec := trace.New(trace.Options{ShardCap: 1 << 12})
	db.SetTracer(rec)
	sub := trace.Subscribe(rec, func([]trace.Event) {}, trace.SubOptions{Retain: true})
	return func() *checker.Report {
		sub.Close()
		if n := rec.Dropped(); n != 0 {
			t.Fatalf("trace dropped %d events", n)
		}
		return checker.Analyze(checker.Txns(sub.Events()))
	}
}

// runAnomalyScript drives the §III-C interleaving against a database
// running the given strategy:
//
//	begin(WC) — WC takes its snapshot before TS commits
//	TS deposits into savings and commits
//	Bal reads the customer's total (sees the deposit)
//	WC evaluates the stale snapshot total, charges the overdraft
//	penalty, and tries to commit
//
// Under plain SI all three commit and the execution is the read-only
// anomaly of Fekete/O'Neil/O'Neil. Every repair strategy must instead
// force a serialization failure somewhere. The function returns the
// checker report and whether any step failed with a retriable error.
func runAnomalyScript(t *testing.T, db *engine.DB, s *Strategy) (rep *checker.Report, conflicted bool) {
	t.Helper()
	analyze := recordHistory(t, db)
	name := CustomerName(0)

	fail := func(err error) bool {
		if err == nil {
			return false
		}
		if core.IsRetriable(err) {
			conflicted = true
			return true
		}
		t.Fatalf("unexpected error: %v", err)
		return true
	}

	// WC begins first: its snapshot predates TS's deposit.
	wcTx := db.Begin()
	wcTx.SetTag("WC")

	// TS deposits 2000 into savings and commits.
	tsTx := db.Begin()
	tsTx.SetTag("TS")
	if err := RunIn(tsTx, s, TransactSaving, Params{N1: name, V: 2000}); err != nil {
		tsTx.Abort()
		if fail(err) {
			wcTx.Abort()
			return analyze(), conflicted
		}
	} else if err := tsTx.Commit(); fail(err) {
		wcTx.Abort()
		return analyze(), conflicted
	}

	// Bal reads the total: sees the deposit (snapshot after TS).
	balTx := db.Begin()
	balTx.SetTag("Bal")
	if err := RunIn(balTx, s, Balance, Params{N1: name}); err != nil {
		balTx.Abort()
		if fail(err) {
			wcTx.Abort()
			return analyze(), conflicted
		}
	} else if err := balTx.Commit(); fail(err) {
		wcTx.Abort()
		return analyze(), conflicted
	}

	// WC writes a check against the stale snapshot: savings 1000 +
	// checking 500 < 1600 => penalty, even though the real total is now
	// 3500.
	if err := RunIn(wcTx, s, WriteCheck, Params{N1: name, V: 1600}); err != nil {
		wcTx.Abort()
		if fail(err) {
			return analyze(), conflicted
		}
	} else if err := wcTx.Commit(); fail(err) {
		return analyze(), conflicted
	}

	return analyze(), conflicted
}

// TestAnomalyUnderPlainSI: the full §III-C scenario commits under SI and
// the checker flags the read-only anomaly.
func TestAnomalyUnderPlainSI(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	rep, conflicted := runAnomalyScript(t, db, StrategySI)
	if conflicted {
		t.Fatal("plain SI must let every step through")
	}
	if rep.Serializable {
		t.Fatalf("anomaly not detected:\n%s", rep.Describe())
	}
	if got := rep.Classify(); got != "read-only anomaly" {
		t.Fatalf("Classify = %q\n%s", got, rep.Describe())
	}
	// The corrupted state: the penalty was charged even though the
	// balance transaction observed sufficient funds.
	_, chkBal := balanceOf(t, db, 0)
	if chkBal != 500-1601 {
		t.Fatalf("checking = %d, want penalty applied", chkBal)
	}
}

// TestStrategiesPreventAnomaly: every repair strategy must turn the same
// interleaving into a serialization failure, and whatever commits must
// be serializable.
func TestStrategiesPreventAnomaly(t *testing.T) {
	for _, s := range Strategies() {
		if s.Name == "SI" {
			continue
		}
		platform := core.PlatformPostgres
		if !s.SoundOn(core.PlatformPostgres) {
			platform = core.PlatformCommercial
		}
		s := s
		t.Run(s.Name, func(t *testing.T) {
			db := testDB(t, core.SnapshotFUW, platform)
			rep, conflicted := runAnomalyScript(t, db, s)
			if !conflicted {
				t.Fatalf("%s did not force a conflict in the dangerous interleaving", s.Name)
			}
			if !rep.Serializable {
				t.Fatalf("%s committed a non-serializable prefix:\n%s", s.Name, rep.Describe())
			}
		})
	}
}

// TestUnsoundSfuOnPostgres: the paper's §II-C point — promoting with
// select-for-update on PostgreSQL does NOT prevent the anomaly, because
// a committed sfu leaves no conflict trace for later writers.
func TestUnsoundSfuOnPostgres(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformPostgres)
	// PromoteWT-sfu: WC sfu-reads Saving. In our script WC performs its
	// reads after TS committed, so the sfu itself fails (FUW)... unless
	// the interleaving is the other order. Use the §II-C order: WC
	// sfu-reads FIRST, commits nothing yet; then TS writes Saving.
	name := CustomerName(0)

	wcTx := db.Begin()
	wcTx.SetTag("WC")
	if err := RunIn(wcTx, StrategyPromoteWTSfu, WriteCheck, Params{N1: name, V: 1600}); err != nil {
		t.Fatalf("WC with sfu: %v", err)
	}

	tsTx := db.Begin()
	tsTx.SetTag("TS")
	errc := make(chan error, 1)
	go func() {
		// TS blocks on the sfu lock until WC commits, then (on
		// PostgreSQL) proceeds without error.
		if err := RunIn(tsTx, StrategyPromoteWTSfu, TransactSaving, Params{N1: name, V: 2000}); err != nil {
			tsTx.Abort()
			errc <- err
			return
		}
		errc <- tsTx.Commit()
	}()

	if err := wcTx.Commit(); err != nil {
		t.Fatalf("WC commit: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("PostgreSQL must allow TS after the sfu holder commits: %v", err)
	}
	// The vulnerable rw edge WC→TS survived: on PostgreSQL sfu promotion
	// is not a serializability fix. (With only two transactions the
	// execution happens to be serializable; the point is that the edge
	// was exercised without any serialization failure.)
}

// TestCommercialSfuPreventsTheEdge: same interleaving on the commercial
// platform must abort TS, because the committed sfu is treated like a
// write.
func TestCommercialSfuPreventsTheEdge(t *testing.T) {
	db := testDB(t, core.SnapshotFUW, core.PlatformCommercial)
	name := CustomerName(0)

	wcTx := db.Begin()
	if err := RunIn(wcTx, StrategyPromoteWTSfu, WriteCheck, Params{N1: name, V: 1600}); err != nil {
		t.Fatalf("WC with sfu: %v", err)
	}

	tsTx := db.Begin()
	errc := make(chan error, 1)
	go func() {
		err := RunIn(tsTx, StrategyPromoteWTSfu, TransactSaving, Params{N1: name, V: 2000})
		if err != nil {
			tsTx.Abort()
			errc <- err
			return
		}
		errc <- tsTx.Commit()
	}()

	if err := wcTx.Commit(); err != nil {
		t.Fatalf("WC commit: %v", err)
	}
	if err := <-errc; !core.IsRetriable(err) {
		t.Fatalf("commercial platform must abort the concurrent writer: %v", err)
	}
}

// TestSSIPreventsAnomalyWithoutModifications: the engine-level extension
// achieves what the strategies do, with no program changes.
func TestSSIPreventsAnomalyWithoutModifications(t *testing.T) {
	db := testDB(t, core.SerializableSI, core.PlatformPostgres)
	rep, conflicted := runAnomalyScript(t, db, StrategySI)
	if !conflicted {
		t.Fatal("SSI must abort part of the dangerous interleaving")
	}
	if !rep.Serializable {
		t.Fatalf("SSI committed a non-serializable prefix:\n%s", rep.Describe())
	}
}

// TestTwoPLPreventsAnomaly: the classic baseline blocks or aborts the
// interleaving.
func TestTwoPLPreventsAnomaly(t *testing.T) {
	// Under 2PL the script's sequential structure would simply block
	// forever at TS (WC holds read locks), so run a bounded variant:
	// TS's attempt must not succeed while WC is active. We use a
	// goroutine and verify TS cannot commit before WC finishes.
	db := testDB(t, core.Strict2PL, core.PlatformPostgres)
	name := CustomerName(0)

	wcTx := db.Begin()
	if err := RunIn(wcTx, StrategySI, WriteCheck, Params{N1: name, V: 1600}); err != nil {
		t.Fatalf("WC under 2PL: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		err := Run(db, StrategySI, TransactSaving, Params{N1: name, V: 2000})
		done <- err
	}()
	select {
	case err := <-done:
		// TS finished while WC held its locks: only acceptable if it
		// was aborted (deadlock victim).
		if err == nil {
			t.Fatal("TS committed while WC held 2PL locks")
		}
	default:
	}
	if err := wcTx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil && !core.IsRetriable(err) {
		t.Fatalf("TS after WC: %v", err)
	}
}
