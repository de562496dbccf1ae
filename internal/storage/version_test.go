package storage

import (
	"testing"
	"testing/quick"

	"sicost/internal/core"
)

func rec(balance int64) core.Record {
	return core.Record{core.Int(1), core.Int(balance)}
}

func TestVersionVisibility(t *testing.T) {
	v := &Version{Rec: rec(100), Creator: 7}
	if v.CSN() != 0 {
		t.Fatal("new version must be uncommitted")
	}
	if !v.VisibleTo(0, 7) {
		t.Fatal("creator must see its own uncommitted version")
	}
	if v.VisibleTo(100, 8) {
		t.Fatal("others must not see an uncommitted version")
	}
	v.MarkCommitted(5)
	if !v.VisibleTo(5, 8) || !v.VisibleTo(6, 8) {
		t.Fatal("committed version invisible to later snapshot")
	}
	if v.VisibleTo(4, 8) {
		t.Fatal("committed version visible to earlier snapshot")
	}
}

func TestRowInstallAndVisible(t *testing.T) {
	r := &Row{}
	if r.Visible(10, 1) != nil || r.Head() != nil {
		t.Fatal("empty row must have no visible version")
	}

	v1 := &Version{Rec: rec(100), Creator: 1}
	r.Install(v1)
	v1.MarkCommitted(1)

	v2 := &Version{Rec: rec(200), Creator: 2}
	r.Install(v2)

	// Snapshot at CSN 1: sees v1; creator 2 sees its uncommitted v2.
	if got := r.Visible(1, 99); got != v1 {
		t.Fatalf("snapshot 1 sees %v, want v1", got)
	}
	if got := r.Visible(1, 2); got != v2 {
		t.Fatal("creator must see own uncommitted head")
	}
	if got := r.NewestCommitted(); got != v1 {
		t.Fatal("newest committed must be v1 while v2 is in flight")
	}

	v2.MarkCommitted(2)
	if got := r.Visible(2, 99); got != v2 {
		t.Fatal("snapshot 2 must see v2 after commit")
	}
	if got := r.Visible(1, 99); got != v1 {
		t.Fatal("snapshot 1 must still see v1 after v2 commits")
	}
	if r.ChainLen() != 2 {
		t.Fatalf("chain length = %d", r.ChainLen())
	}
}

func TestRowRemoveUncommitted(t *testing.T) {
	r := &Row{}
	v1 := &Version{Rec: rec(100), Creator: 1}
	r.Install(v1)
	v1.MarkCommitted(1)

	v2 := &Version{Rec: rec(200), Creator: 2}
	r.Install(v2)
	if !r.RemoveUncommitted(2) {
		t.Fatal("RemoveUncommitted must unlink creator's uncommitted head")
	}
	if r.Head() != v1 {
		t.Fatal("head must revert to v1")
	}
	// Second call: nothing to remove.
	if r.RemoveUncommitted(2) {
		t.Fatal("nothing left to remove")
	}
	// Must not remove a committed head.
	if r.RemoveUncommitted(1) {
		t.Fatal("must not remove a committed version")
	}
}

func TestRowSFUCommitMonotonic(t *testing.T) {
	r := &Row{}
	r.NoteSFUCommit(5)
	r.NoteSFUCommit(3) // older commit must not regress the mark
	if got := r.LastSFUCommit(); got != 5 {
		t.Fatalf("LastSFUCommit = %d, want 5", got)
	}
	r.NoteSFUCommit(9)
	if got := r.LastSFUCommit(); got != 9 {
		t.Fatalf("LastSFUCommit = %d, want 9", got)
	}
}

// Property: for any sequence of committed versions with increasing CSNs,
// Visible(snap) returns the version with the largest CSN <= snap.
func TestRowVisibleProperty(t *testing.T) {
	f := func(raw []uint8, snap8 uint8) bool {
		r := &Row{}
		csn := uint64(0)
		var csns []uint64
		for i := range raw {
			csn += uint64(raw[i]%3) + 1
			v := &Version{Rec: rec(int64(csn)), Creator: uint64(i + 1)}
			r.Install(v)
			v.MarkCommitted(csn)
			csns = append(csns, csn)
		}
		snap := uint64(snap8)
		got := r.Visible(snap, 0)
		var want uint64
		for _, c := range csns {
			if c <= snap {
				want = c
			}
		}
		if want == 0 {
			return got == nil
		}
		return got != nil && got.CSN() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// versionSink keeps the versions an allocation count makes on the heap.
var versionSink *Version

// TestNewVersionCopiesImage: a version owns a copy of its image — one
// allocation with the version up to inlineCols columns, a clone beside
// it above — and keeps a tombstone's nil and an empty image's non-nil.
func TestNewVersionCopiesImage(t *testing.T) {
	for _, image := range []core.Record{
		{}, {core.Int(1)}, rec(100), {core.Int(1), core.Str("x"), core.Int(2)},
	} {
		v := NewVersion(image, 7)
		if v.Creator != 7 || v.CSN() != 0 {
			t.Fatalf("%v: creator %d, csn %d", image, v.Creator, v.CSN())
		}
		if v.Rec == nil || !v.Rec.Equal(image) {
			t.Fatalf("version carries %v, want %v", v.Rec, image)
		}
		if len(image) > 0 {
			image[0] = core.Int(99)
			if v.Rec[0] == core.Int(99) {
				t.Fatalf("%v: the version aliases its caller's record", v.Rec)
			}
		}
		want := 1.0
		if len(image) > inlineCols {
			want = 2
		}
		if n := testing.AllocsPerRun(100, func() { versionSink = NewVersion(image, 7) }); n != want {
			t.Errorf("%d columns: %v allocations, want %v", len(image), n, want)
		}
	}
	if v := NewVersion(nil, 7); v.Rec != nil {
		t.Fatalf("a tombstone carries %v", v.Rec)
	}
}
