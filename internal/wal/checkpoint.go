package wal

import (
	"sicost/internal/core"
	"sicost/internal/storage"
)

// SnapshotAll returns every live row as of cut: the rows of a
// checkpoint. It does not need the commit barrier while it runs.
// Versions with csn <= cut are immutable once published, so commits
// stamping newer versions concurrently never perturb the result, and
// keys born after the cut resolve to nothing. The caller keeps cut at or
// above the engine's snapshot horizon while this runs, so pruning
// writers leave the versions it reads in place. Rows come in (table,
// key) order.
func SnapshotAll(store *storage.Store, cut uint64) []CkptRow {
	var out []CkptRow
	for _, name := range store.TableNames() {
		t, err := store.Table(name)
		if err != nil {
			continue
		}
		for _, k := range t.Keys() {
			row := t.Row(k)
			if row == nil {
				continue
			}
			if v := row.CommittedAsOf(cut); v != nil && v.Rec != nil {
				out = append(out, CkptRow{Table: name, Key: k, CSN: v.CSN(), Rec: v.Rec})
			}
		}
	}
	return out
}

// Schemas returns every table schema in the store, sorted by name —
// the set a checkpoint's begin marker embeds. The caller holds the
// commit barrier (DDL takes its read side), so the set is consistent
// with the cut.
func Schemas(store *storage.Store) []core.Schema {
	var out []core.Schema
	for _, name := range store.TableNames() {
		t, err := store.Table(name)
		if err != nil {
			continue
		}
		out = append(out, *t.Schema())
	}
	return out
}
