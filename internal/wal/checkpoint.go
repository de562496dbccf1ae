package wal

import (
	"sicost/internal/core"
	"sicost/internal/storage"
)

// Schemas returns every table schema in the store, sorted by name —
// the set a checkpoint's begin marker embeds. Read in the sequencer's
// critical section that queues the marker, where DDL queues its frames,
// it holds exactly the tables whose schema frames precede the marker.
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
