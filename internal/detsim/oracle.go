// The checker cross-validation oracle: an independent, brute-force
// decision procedure for the same question internal/checker answers —
// is the recorded committed history serializable under the MVSG with
// the engine's commit-order (CSN) version order?
//
// Independence is the point. The checker builds explicit edge lists
// with sorted version arrays, binary searches and the graph package's
// cycle detector; the oracle derives its ordering constraints pairwise,
// straight from the MVSG definition, with naive quadratic loops, and
// decides serializability by exhaustively searching for a serial order
// (backtracking over every admissible next transaction). Any divergence
// between the two is an implementation bug in one of them, which the
// fuzzer (crossval_test.go) reports as a minimized counterexample — the
// black-box-checking methodology of Huang et al. applied to our own
// runtime detector.
package detsim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/histories"
)

// SerializableBrute reports whether the committed history is
// serializable: whether a total order of the transactions exists that
// respects every WR, WW and RW constraint of the multi-version
// serialization graph, with versions ordered by CSN. SFU records are
// ignored, mirroring the checker (they create no versions).
//
// The search is exponential in the worst case; callers keep histories
// small (the fuzzer uses <= 8 transactions).
func SerializableBrute(txns []checker.Txn) bool {
	n := len(txns)
	if n <= 1 {
		return true
	}
	// pre[i][j]: transaction i must precede transaction j.
	pre := make([][]bool, n)
	for i := range pre {
		pre[i] = make([]bool, n)
	}
	for i, a := range txns {
		for j, b := range txns {
			if i == j {
				continue
			}
			// WW: a created an older version of an item b also wrote.
			for _, wa := range a.Writes {
				for _, wb := range b.Writes {
					if wa.Table == wb.Table && wa.Key == wb.Key && wa.CSN < wb.CSN {
						pre[i][j] = true
					}
				}
			}
			// WR: b read a version a created.
			for _, wa := range a.Writes {
				for _, rb := range b.Reads {
					if wa.Table == rb.Table && wa.Key == rb.Key && wa.CSN == rb.CSN {
						pre[i][j] = true
					}
				}
			}
			// RW: a read a version older than one b created
			// (antidependency: a must come before the overwriter).
			for _, ra := range a.Reads {
				for _, wb := range b.Writes {
					if ra.Table == wb.Table && ra.Key == wb.Key && wb.CSN > ra.CSN {
						pre[i][j] = true
					}
				}
			}
		}
	}
	// Exhaustive serial-order search: place any transaction all of whose
	// predecessors are already placed; backtrack otherwise.
	placed := make([]bool, n)
	var search func(count int) bool
	search = func(count int) bool {
		if count == n {
			return true
		}
		for cand := 0; cand < n; cand++ {
			if placed[cand] {
				continue
			}
			ok := true
			for other := 0; other < n; other++ {
				if !placed[other] && other != cand && pre[other][cand] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			placed[cand] = true
			if search(count + 1) {
				return true
			}
			placed[cand] = false
		}
		return false
	}
	return search(0)
}

// HistoryGen generates random committed histories shaped like what the
// engine actually emits under snapshot isolation: every transaction
// reads from a start snapshot and commits at an increasing CSN —
// exactly the regime where write skew and read-only anomalies live. A
// stale-read knob injects reads of arbitrary (even nonexistent)
// versions so the comparison also covers histories no correct engine
// would produce.
type HistoryGen struct {
	// MaxTxns bounds the transaction count (default 7 — the oracle is
	// factorial in this).
	MaxTxns int
	// Items is the number of distinct items (default 4).
	Items int
	// MaxOps bounds reads plus writes per transaction (default 5).
	MaxOps int
	// StaleProb is the probability a read ignores the snapshot and
	// picks an arbitrary version (default 0.2).
	StaleProb float64
}

func (g HistoryGen) defaults() HistoryGen {
	if g.MaxTxns == 0 {
		g.MaxTxns = 7
	}
	if g.Items == 0 {
		g.Items = 4
	}
	if g.MaxOps == 0 {
		g.MaxOps = 5
	}
	if g.StaleProb == 0 {
		g.StaleProb = 0.2
	}
	return g
}

// Generate produces one random committed history.
func (g HistoryGen) Generate(rng *rand.Rand) []checker.Txn {
	g = g.defaults()
	nTxns := 1 + rng.Intn(g.MaxTxns)
	// committed[i] = CSNs of committed versions of item i, ascending;
	// CSN 0 stands for the pre-loaded initial version.
	committed := make([][]uint64, g.Items)
	for i := range committed {
		committed[i] = []uint64{0}
	}
	commitSeq := uint64(0)
	txns := make([]checker.Txn, 0, nTxns)
	for t := 0; t < nTxns; t++ {
		// Start snapshot: any commit point so far — concurrent
		// transactions arise when a later one starts below commitSeq.
		start := uint64(rng.Intn(int(commitSeq) + 1))
		info := checker.Txn{ID: uint64(t + 1), StartCSN: start}
		nOps := 1 + rng.Intn(g.MaxOps)
		wrote := make(map[int]bool)
		var writes []int
		for o := 0; o < nOps; o++ {
			it := rng.Intn(g.Items)
			if rng.Intn(2) == 0 && !wrote[it] {
				wrote[it] = true
				writes = append(writes, it)
				continue
			}
			if wrote[it] {
				// The engine never records reads of own writes.
				continue
			}
			var csn uint64
			if rng.Float64() < g.StaleProb {
				// Arbitrary version, possibly nonexistent: the checker
				// must cope with reads outside the recorded window.
				csn = uint64(rng.Intn(int(commitSeq) + 2))
			} else {
				// Snapshot read: newest committed version <= start.
				vs := committed[it]
				k := sort.Search(len(vs), func(i int) bool { return vs[i] > start }) - 1
				csn = vs[k]
			}
			info.Reads = append(info.Reads, checker.Ref{
				Table: histories.Table, Key: itemKeyVal(it), CSN: csn,
			})
		}
		if len(writes) > 0 {
			commitSeq++
			for _, it := range writes {
				info.Writes = append(info.Writes, checker.Ref{
					Table: histories.Table, Key: itemKeyVal(it), CSN: commitSeq,
				})
				committed[it] = append(committed[it], commitSeq)
			}
			info.CommitCSN = commitSeq
		} else {
			info.CommitCSN = start
		}
		info.Tag = fmt.Sprintf("g%d", t+1)
		txns = append(txns, info)
	}
	return txns
}

func itemKeyVal(i int) core.Value {
	return core.Str(string(rune('a' + i)))
}

// CheckerAgrees runs both deciders on the history and reports whether
// they agree, along with each verdict.
func CheckerAgrees(txns []checker.Txn) (agree, checkerSays, oracleSays bool) {
	checkerSays = checker.Analyze(txns).Serializable
	oracleSays = SerializableBrute(txns)
	return checkerSays == oracleSays, checkerSays, oracleSays
}

// MinimizeDivergence shrinks a history on which checker and oracle
// disagree: it greedily drops whole transactions, then individual reads
// and writes, as long as the divergence persists. The returned history
// still diverges.
func MinimizeDivergence(txns []checker.Txn) []checker.Txn {
	diverges := func(h []checker.Txn) bool {
		agree, _, _ := CheckerAgrees(h)
		return !agree
	}
	if !diverges(txns) {
		return txns
	}
	cur := append([]checker.Txn(nil), txns...)
	for changed := true; changed; {
		changed = false
		// Drop transactions.
		for i := 0; i < len(cur); i++ {
			trial := append(append([]checker.Txn(nil), cur[:i]...), cur[i+1:]...)
			if diverges(trial) {
				cur = trial
				changed = true
				i--
			}
		}
		// Drop individual reads and writes.
		for i := range cur {
			for j := 0; j < len(cur[i].Reads); j++ {
				trial := cloneTxns(cur)
				trial[i].Reads = append(append([]checker.Ref(nil), trial[i].Reads[:j]...), trial[i].Reads[j+1:]...)
				if diverges(trial) {
					cur = trial
					changed = true
					j--
				}
			}
			for j := 0; j < len(cur[i].Writes); j++ {
				trial := cloneTxns(cur)
				trial[i].Writes = append(append([]checker.Ref(nil), trial[i].Writes[:j]...), trial[i].Writes[j+1:]...)
				if diverges(trial) {
					cur = trial
					changed = true
					j--
				}
			}
		}
	}
	return cur
}

func cloneTxns(txns []checker.Txn) []checker.Txn {
	out := make([]checker.Txn, len(txns))
	for i, in := range txns {
		out[i] = in
		out[i].Reads = append([]checker.Ref(nil), in.Reads...)
		out[i].Writes = append([]checker.Ref(nil), in.Writes...)
	}
	return out
}

// FormatHistory renders a history for failure reports: one line per
// transaction with its snapshot, reads and writes.
func FormatHistory(txns []checker.Txn) string {
	var b strings.Builder
	for _, in := range txns {
		fmt.Fprintf(&b, "T%d[start=%d,commit=%d]", in.ID, in.StartCSN, in.CommitCSN)
		for _, r := range in.Reads {
			fmt.Fprintf(&b, " r(%s@%d)", r.Key.S, r.CSN)
		}
		for _, w := range in.Writes {
			fmt.Fprintf(&b, " w(%s@%d)", w.Key.S, w.CSN)
		}
		b.WriteString("\n")
	}
	return b.String()
}
