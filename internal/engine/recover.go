package engine

import (
	"fmt"

	"sicost/internal/core"
	"sicost/internal/storage"
	"sicost/internal/wal"
)

// RecoveryReport summarizes what Recover rebuilt.
type RecoveryReport struct {
	// Log is the device-scan result: checkpoint found, redo frames,
	// torn bytes discarded.
	Log *wal.RecoveryInfo
	// Tables is the number of table definitions restored.
	Tables int
	// CheckpointRows counts rows restored from the checkpoint snapshot;
	// ReplayedCommits and ReplayedRows count the redo work after it.
	CheckpointRows  int
	ReplayedCommits int
	ReplayedRows    int
	// HighCSN is the restored commit-sequence high-water mark; the
	// first post-recovery commit gets HighCSN+1.
	HighCSN uint64
}

// Recover rebuilds a database from a log device: ARIES-style redo-only
// recovery over the committed row images the WAL persists. The scan
// truncates any torn tail (repairing the device in place), the newest
// complete checkpoint is restored verbatim, commit frames beyond its cut
// are replayed in CSN order, unique indexes are rebuilt from
// the recovered final state, and the CSN sequencer resumes from the
// recovered high-water mark. cfg configures the revived instance (mode,
// platform, cost model, faults); its WAL device is forced to dev, so the
// revived database keeps appending to the same log.
//
// Recovery is idempotent: recovering the same device twice — or a
// device and its post-repair copy — yields identical state, because the
// first pass's only write is the torn-tail truncation.
//
// Recovered versions carry Creator 0, an id no live transaction ever
// holds (transaction ids start at 1), so own-write visibility rules
// cannot confuse replayed rows with a resumed session's writes.
func Recover(dev wal.LogDevice, cfg Config) (*DB, *RecoveryReport, error) {
	info, err := wal.Recover(dev)
	if err != nil {
		return nil, nil, err
	}

	cfg.WAL.Device = dev
	db := Open(cfg)
	report := &RecoveryReport{Log: info, HighCSN: info.HighCSN}

	fail := func(err error) (*DB, *RecoveryReport, error) {
		db.Close()
		return nil, nil, err
	}

	// Table definitions. db.store.CreateTable, not db.CreateTable: the
	// schemas are already durable, and the DB-level method would append
	// duplicate DDL frames.
	for i := range info.Schemas {
		s := info.Schemas[i]
		if _, err := db.store.CreateTable(&s); err != nil {
			return fail(fmt.Errorf("engine: recover: %w", err))
		}
		report.Tables++
	}

	// Checkpoint snapshot: every row is new, committed at its own CSN,
	// so the whole checkpoint is placed in bulk, each table's rows at
	// once and on a goroutine of their own, and each recovered chain
	// starts as the crashed one's newest version did.
	if ck := info.Checkpoint; ck != nil {
		for _, r := range ck.Rows {
			if r.CSN == 0 || r.CSN > ck.CSN {
				return fail(fmt.Errorf("engine: recover: checkpoint row %s/%v has CSN %d outside (0, %d]",
					r.Table, r.Key, r.CSN, ck.CSN))
			}
		}
		// Recovery is alone with the database: each table's batch ends
		// as soon as it is placed.
		tables, err := db.groupRows(len(ck.Rows), func(i int) (string, core.Value, core.Record, uint64) {
			r := &ck.Rows[i]
			return r.Table, r.Key, r.Rec, r.CSN
		})
		if err == nil {
			err = placeRows(tables, func(t *bulkTable) (err error) {
				t.ins, err = t.tbl.InsertRows(0, len(t.rows), t.image)
				return err
			})
		}
		if err != nil {
			return fail(fmt.Errorf("engine: recover: checkpoint: %w", err))
		}
		for _, t := range tables {
			t.ins.Release()
		}
		report.CheckpointRows = len(ck.Rows)
		db.ckptRunMu.Lock() // the scheduler goroutine is already running
		db.ckptCut = ck.CSN
		db.ckptRunMu.Unlock()
	}

	// Redo replay, in CSN order. Per-row log order equals per-row CSN
	// order (the writer holds the row's X lock from write through
	// publication), so installing each commit's images in ascending CSN
	// leaves every chain newest-first, exactly as the live engine would:
	// each image is linked at the head of its row's chain, the row
	// created first if the image is the row's first.
	for _, c := range info.Commits {
		if c.CSN == 0 {
			return fail(fmt.Errorf("engine: recover: commit frame for tx %d carries CSN 0", c.TxID))
		}
		for _, ri := range c.Rows {
			tbl, err := db.store.Table(ri.Table)
			if err != nil {
				return fail(fmt.Errorf("engine: recover: commit %d: %w", c.CSN, err))
			}
			if err := checkImage(tbl, ri.Key, ri.Rec); err != nil {
				return fail(fmt.Errorf("engine: recover: commit %d: %w", c.CSN, err))
			}
			row := tbl.Row(ri.Key)
			if row == nil {
				row = tbl.EnsureRow(ri.Key)
			}
			v := &storage.Version{Rec: ri.Rec}
			row.Install(v)
			v.MarkCommitted(c.CSN)
		}
		report.ReplayedRows += len(c.Rows)
		report.ReplayedCommits++
	}

	// Unique secondary indexes are not logged; rebuild them from the
	// recovered final state, each index in bulk, every entry committed
	// at its row's CSN so snapshot lookups behave as before the crash.
	for _, name := range db.store.TableNames() {
		tbl, err := db.store.Table(name)
		if err != nil {
			return fail(err)
		}
		if len(tbl.Indexes()) == 0 {
			continue
		}
		var live []keyedRow
		tbl.Range(func(k core.Value, row *storage.Row) bool {
			if v := row.NewestCommitted(); v != nil && v.Rec != nil {
				live = append(live, keyedRow{k, row})
			}
			return true
		})
		for _, ix := range tbl.Indexes() {
			if err := ix.InsertRows(0, len(live), func(i int) (core.Value, core.Record, uint64) {
				v := live[i].row.NewestCommitted()
				return live[i].key, v.Rec, v.CSN()
			}); err != nil {
				return fail(fmt.Errorf("engine: recover: index rebuild on %s.%s: %w", name, ix.Column(), err))
			}
		}
	}

	// Sequencer restore: new snapshots see everything recovered, and
	// the next commit continues the CSN stream past the high-water mark.
	db.seqMu.Lock()
	db.nextCSN = info.HighCSN
	db.seqMu.Unlock()
	db.visibleCSN.Store(info.HighCSN)
	db.log.ResumeDurable(info.HighCSN)
	return db, report, nil
}
