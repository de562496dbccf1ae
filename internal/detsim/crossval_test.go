package detsim

import (
	"math/rand"
	"testing"

	"sicost/internal/checker"
	"sicost/internal/histories"
)

// TestCheckerCrossValidation is the property-based fuzzer of the issue:
// it generates random SI-shaped committed histories and requires the
// runtime checker and the independent brute-force MVSG oracle to agree
// on every one. A divergence is minimized before being reported. The
// seed is fixed so CI explores the identical corpus every run.
func TestCheckerCrossValidation(t *testing.T) {
	n := 10000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(20080576))
	gen := HistoryGen{}
	nonSer := 0
	for i := 0; i < n; i++ {
		h := gen.Generate(rng)
		agree, checkerSays, oracleSays := CheckerAgrees(h)
		if !agree {
			min := MinimizeDivergence(h)
			t.Fatalf("divergence on history %d: checker=%v oracle=%v\nminimized counterexample:\n%s\nfull history:\n%s",
				i, checkerSays, oracleSays, FormatHistory(min), FormatHistory(h))
		}
		if !checkerSays {
			nonSer++
		}
	}
	// The generator must actually exercise both verdicts, or the
	// cross-validation is vacuous.
	if nonSer == 0 || nonSer == n {
		t.Fatalf("degenerate corpus: %d/%d non-serializable histories", nonSer, n)
	}
	t.Logf("cross-validated %d histories (%d non-serializable), zero divergence", n, nonSer)
}

// wsHistory is a hand-built write-skew history: both transactions start
// at snapshot 0, read both items at version 0, and write disjoint items.
func wsHistory() []checker.Txn {
	r := func(it int, csn uint64) checker.Ref {
		return checker.Ref{Table: histories.Table, Key: itemKeyVal(it), CSN: csn}
	}
	return []checker.Txn{
		{ID: 1, StartCSN: 0, CommitCSN: 1,
			Reads:  []checker.Ref{r(0, 0), r(1, 0)},
			Writes: []checker.Ref{r(0, 1)}},
		{ID: 2, StartCSN: 0, CommitCSN: 2,
			Reads:  []checker.Ref{r(0, 0), r(1, 0)},
			Writes: []checker.Ref{r(1, 2)}},
	}
}

// TestOracleKnownVerdicts pins the oracle on histories with known
// answers, independently of the checker.
func TestOracleKnownVerdicts(t *testing.T) {
	if !SerializableBrute(nil) || !SerializableBrute([]checker.Txn{{ID: 1}}) {
		t.Fatal("empty and single-transaction histories are vacuously serializable")
	}
	if !SerializableBrute([]checker.Txn{{ID: 1}, {ID: 2}}) {
		t.Fatal("two empty transactions must be serializable")
	}
	h := wsHistory()
	if SerializableBrute(h) {
		t.Fatal("oracle must reject write skew")
	}
	agree, checkerSays, _ := CheckerAgrees(h)
	if !agree || checkerSays {
		t.Fatalf("checker must agree write skew is non-serializable (agree=%v checker=%v)", agree, checkerSays)
	}
	// Serial version: t2 starts after t1 committed and reads its write.
	serial := wsHistory()
	serial[1].StartCSN = 1
	serial[1].Reads = []checker.Ref{
		{Table: histories.Table, Key: itemKeyVal(0), CSN: 1},
		{Table: histories.Table, Key: itemKeyVal(1), CSN: 0},
	}
	if !SerializableBrute(serial) {
		t.Fatal("oracle must accept the serial history")
	}
	if agree, _, _ := CheckerAgrees(serial); !agree {
		t.Fatal("checker must agree on the serial history")
	}
}

// TestMinimizeDivergenceNoDivergence asserts the minimizer is the
// identity on agreeing histories (it must not "minimize" into a fake
// counterexample).
func TestMinimizeDivergenceNoDivergence(t *testing.T) {
	h := wsHistory()
	got := MinimizeDivergence(h)
	if len(got) != len(h) {
		t.Fatalf("minimizer changed an agreeing history: %d -> %d txns", len(h), len(got))
	}
}

// TestHistoryGenShape sanity-checks the generator output: reads are
// plausible versions, writers have unique ascending commit CSNs, and
// read-only transactions commit at their snapshot.
func TestHistoryGenShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := HistoryGen{}
	for i := 0; i < 200; i++ {
		h := gen.Generate(rng)
		if len(h) == 0 {
			t.Fatal("empty history")
		}
		var lastCommit uint64
		for _, in := range h {
			if len(in.Writes) == 0 {
				if in.CommitCSN != in.StartCSN {
					t.Fatalf("bad read-only txn: %+v", in)
				}
				continue
			}
			if in.CommitCSN <= lastCommit {
				t.Fatalf("commit CSNs not ascending: %d after %d", in.CommitCSN, lastCommit)
			}
			lastCommit = in.CommitCSN
			for _, w := range in.Writes {
				if w.CSN != in.CommitCSN {
					t.Fatalf("write CSN %d != commit CSN %d", w.CSN, in.CommitCSN)
				}
			}
		}
	}
}

// TestFormatHistory smoke-tests the failure-report renderer.
func TestFormatHistory(t *testing.T) {
	out := FormatHistory(wsHistory())
	want := "T1[start=0,commit=1] r(a@0) r(b@0) w(a@1)\nT2[start=0,commit=2] r(a@0) r(b@0) w(b@2)\n"
	if out != want {
		t.Fatalf("FormatHistory:\n%q\nwant\n%q", out, want)
	}
}
