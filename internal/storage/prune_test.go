package storage

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"sicost/internal/core"
)

// sameVersion reports whether two rows' readers got the same answer:
// both nothing, or versions with the same creator, CSN and image.
func sameVersion(a, b *Version) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Creator == b.Creator && a.CSN() == b.CSN() && a.Rec.Equal(b.Rec)
}

// TestQuickPruneKeepsVisibility: for random install / commit / abort /
// prune histories, every reader at or above the horizon — with and
// without an uncommitted version of its own — sees on the pruned chain
// exactly what it sees on a chain that was never pruned (so does a
// CommittedAsOf scan), and a prune leaves exactly one version at or
// below the horizon.
func TestQuickPruneKeepsVisibility(t *testing.T) {
	f := func(ops []uint8) bool {
		pruned, ref := &Row{}, &Row{}
		var (
			csn, horizon uint64
			inflight     uint64 // creator of the uncommitted head, 0 for none
			nextTx       = uint64(1)
		)
		for step, op := range ops {
			switch k := op % 4; {
			case k < 3 && inflight == 0: // install (a tombstone now and then)
				inflight = nextTx
				nextTx++
				var r core.Record
				if op%16 != 0 {
					r = rec(int64(step))
				}
				pruned.Install(&Version{Rec: r, Creator: inflight})
				ref.Install(&Version{Rec: r, Creator: inflight})
			case k < 2: // commit
				csn++
				pruned.Head().MarkCommitted(csn)
				ref.Head().MarkCommitted(csn)
				inflight = 0
			case k == 2: // abort
				if !pruned.RemoveUncommitted(inflight) || !ref.RemoveUncommitted(inflight) {
					t.Logf("step %d: abort found no uncommitted head", step)
					return false
				}
				inflight = 0
			default: // advance the horizon, never past the newest commit, and prune (in flight or not)
				if horizon += uint64(op >> 4); horizon > csn {
					horizon = csn
				}
				before := pruned.ChainLen()
				if n := pruned.Prune(horizon); before-pruned.ChainLen() != n {
					t.Logf("step %d: Prune reported %d, chain went %d -> %d", step, n, before, pruned.ChainLen())
					return false
				}
				old := 0
				for v := pruned.Head(); v != nil; v = v.Prev.Load() {
					if c := v.CSN(); c != 0 && c <= horizon {
						old++
					}
				}
				if want := min(horizon, 1); uint64(old) != want {
					t.Logf("step %d: %d versions at or below horizon %d after prune", step, old, horizon)
					return false
				}
			}
			if !sameVersion(pruned.NewestCommitted(), ref.NewestCommitted()) {
				t.Logf("step %d: NewestCommitted differs", step)
				return false
			}
			for s := horizon; s <= csn+1; s++ {
				if !sameVersion(pruned.CommittedAsOf(s), ref.CommittedAsOf(s)) {
					t.Logf("step %d: CommittedAsOf(%d) differs at horizon %d", step, s, horizon)
					return false
				}
				for _, self := range []uint64{0, inflight} {
					if !sameVersion(pruned.Visible(s, self), ref.Visible(s, self)) {
						t.Logf("step %d: Visible(%d, %d) differs at horizon %d", step, s, self, horizon)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestStressPruneLockFreeReaders runs writers that transfer between the
// rows of a 4-row hotspot — install on two rows, commit both under one
// CSN, prune both behind the horizon — against readers that walk the
// chains with no lock. The writers' per-row mutexes stand in for the
// lock table's X locks, the registry mutex for a stripe of the engine's
// horizon registry. A reader's snapshot must show the constant total
// (a chain cut under it would lose a row or show a torn transfer) and
// must show it again on a second read.
func TestStressPruneLockFreeReaders(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		rows      = 4
		writers   = 4
		readers   = 4
		transfers = 3000
		initial   = 1000
		idle      = ^uint64(0)
	)
	var (
		row      [rows]Row
		xlock    [rows]sync.Mutex
		seqMu    sync.Mutex // stamp and publish in one step: publication in CSN order
		visible  atomic.Uint64
		horizon  atomic.Uint64
		regMu    sync.Mutex
		snaps    [readers]atomic.Uint64
		stop     atomic.Bool
		maxChain atomic.Int64
	)
	for i := range row {
		v := &Version{Rec: rec(initial)}
		row[i].Install(v)
		v.MarkCommitted(1)
	}
	visible.Store(1)
	for i := range snaps {
		snaps[i].Store(idle)
	}
	advance := func() {
		regMu.Lock()
		low := visible.Load()
		for i := range snaps {
			if s := snaps[i].Load(); s < low {
				low = s
			}
		}
		regMu.Unlock()
		for {
			cur := horizon.Load()
			if low <= cur || horizon.CompareAndSwap(cur, low) {
				return
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := uint64(id + 1)
			for i := 0; i < transfers; i++ {
				a, b := (id+i)%rows, (id+i+1+i%(rows-1))%rows
				if a > b {
					a, b = b, a
				}
				xlock[a].Lock()
				xlock[b].Lock()
				va := &Version{Rec: rec(row[a].NewestCommitted().Rec[1].Int64() - 1), Creator: tx}
				vb := &Version{Rec: rec(row[b].NewestCommitted().Rec[1].Int64() + 1), Creator: tx}
				row[a].Install(va)
				row[b].Install(vb)
				seqMu.Lock()
				csn := visible.Load() + 1
				va.MarkCommitted(csn)
				vb.MarkCommitted(csn)
				visible.Store(csn)
				seqMu.Unlock()
				h := horizon.Load()
				row[a].Prune(h)
				row[b].Prune(h)
				if n := int64(row[a].ChainLen()); n > maxChain.Load() {
					maxChain.Store(n)
				}
				xlock[b].Unlock()
				xlock[a].Unlock()
				if i%8 == 0 {
					advance()
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(id int) {
			defer rg.Done()
			for !stop.Load() {
				regMu.Lock()
				s := visible.Load()
				snaps[id].Store(s)
				regMu.Unlock()
				for pass := 0; pass < 2; pass++ {
					total := int64(0)
					for i := range row {
						v := row[i].Visible(s, 0)
						if v == nil || v.Rec == nil {
							t.Errorf("reader %d: snapshot %d lost row %d (horizon %d)", id, s, i, horizon.Load())
							return
						}
						total += v.Rec[1].Int64()
					}
					if total != rows*initial {
						t.Errorf("reader %d: snapshot %d sums to %d, want %d", id, s, total, rows*initial)
						return
					}
				}
				snaps[id].Store(idle)
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()

	// Nobody reads any more: one more round cuts every chain to its head.
	advance()
	for i := range row {
		row[i].Prune(horizon.Load())
		if n := row[i].ChainLen(); n != 1 {
			t.Errorf("row %d: chain length %d after the final prune", i, n)
		}
	}
	if got := maxChain.Load(); got >= writers*transfers/rows {
		t.Errorf("chains grew to %d versions: pruning never happened", got)
	}
}

// TestUniqueIndexCommitCutsEntryList: an index value that is deleted and
// re-inserted over and over keeps a bounded entry list once the horizon
// follows the commits, and lookups at or above the horizon are
// unchanged by the cut.
func TestUniqueIndexCommitCutsEntryList(t *testing.T) {
	ix := NewUniqueIndex("T", "C", 1)
	val := core.Int(7)
	csn := uint64(0)
	for tx := uint64(1); tx <= 100; tx++ {
		pk := core.Int(int64(tx))
		if tx > 1 {
			ix.Delete(tx, val)
		}
		if err := ix.Insert(tx, val, pk); err != nil {
			t.Fatalf("tx %d: %v", tx, err)
		}
		horizon := csn // everybody reads at or above the previous commit
		csn++
		ix.Commit(tx, csn, horizon)
		for s := horizon; s <= csn; s++ {
			want := pk
			if s < csn {
				want = core.Int(int64(tx - 1))
			}
			if got, ok := ix.Lookup(s, 0, val); s > 0 && (!ok || got != want) {
				t.Fatalf("tx %d: Lookup at %d = %v, %v; want %v", tx, s, got, ok, want)
			}
		}
		s := ix.stripe(val)
		if n := len(s.entries.get(val)); n > 3 {
			t.Fatalf("tx %d: entry list holds %d entries", tx, n)
		}
	}
}
