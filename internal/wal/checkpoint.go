package wal

import (
	"sicost/internal/core"
	"sicost/internal/storage"
)

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
