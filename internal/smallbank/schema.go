// Package smallbank implements the paper's §III benchmark: a small
// banking database with customers holding a savings and a checking
// account, five transaction programs (Balance, DepositChecking,
// TransactSaving, Amalgamate, WriteCheck), and the eight
// program-modification strategies of §III-D that guarantee serializable
// execution on snapshot-isolation platforms.
package smallbank

import (
	"fmt"
	"math/rand"
	"strconv"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/simres"
	"sicost/internal/wal"
)

// Table names.
const (
	TableAccount  = "Account"
	TableSaving   = "Saving"
	TableChecking = "Checking"
	// TableConflict is the dedicated materialization table of §II-B; it
	// is "not used elsewhere in the application".
	TableConflict = "Conflict"
)

// AccountSchema is Account(Name, CustomerID): primary key Name, with a
// DBMS-enforced non-null unique constraint on CustomerID (§III-A).
func AccountSchema() *core.Schema {
	return &core.Schema{
		Name: TableAccount,
		Columns: []core.Column{
			{Name: "Name", Kind: core.KindString, NotNull: true},
			{Name: "CustomerID", Kind: core.KindInt, NotNull: true},
		},
		PK:     0,
		Unique: []int{1},
	}
}

// SavingSchema is Saving(CustomerID, Balance).
func SavingSchema() *core.Schema {
	return &core.Schema{
		Name: TableSaving,
		Columns: []core.Column{
			{Name: "CustomerID", Kind: core.KindInt, NotNull: true},
			{Name: "Balance", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
}

// CheckingSchema is Checking(CustomerID, Balance).
func CheckingSchema() *core.Schema {
	return &core.Schema{
		Name: TableChecking,
		Columns: []core.Column{
			{Name: "CustomerID", Kind: core.KindInt, NotNull: true},
			{Name: "Balance", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
}

// ConflictSchema is Conflict(Id, Value), initialized with one row per
// customer (plus the fixed row 0 for the single-row ablation) so the
// materialized programs can use a plain UPDATE (§III-D(a)).
func ConflictSchema() *core.Schema {
	return &core.Schema{
		Name: TableConflict,
		Columns: []core.Column{
			{Name: "Id", Kind: core.KindInt, NotNull: true},
			{Name: "Value", Kind: core.KindInt, NotNull: true},
		},
		PK: 0,
	}
}

// CustomerName renders the account name of customer i, the benchmark's
// parameter space: "cust%07d", written out by hand because the loader
// and every generated transaction call it.
func CustomerName(i int) string {
	if i < 0 {
		return fmt.Sprintf("cust%07d", i)
	}
	var buf [24]byte
	b := append(buf[:0], "cust"...)
	for w := 1_000_000; w > 1 && i < w; w /= 10 {
		b = append(b, '0')
	}
	return string(strconv.AppendInt(b, int64(i), 10))
}

// FixedConflictID keys the single shared Conflict row used by the
// fixed-row materialization ablation (§II-B's "simplest approach");
// customer ids are non-negative, so -1 never collides.
const FixedConflictID = int64(-1)

// LoadConfig parameterizes the initial database population.
type LoadConfig struct {
	// Customers is the table size; the paper uses 18000.
	Customers int
	// Seed drives the random initial balances.
	Seed int64
	// MinSaving/MaxSaving and MinChecking/MaxChecking bound the initial
	// balances in cents. Zero values select the defaults.
	MinSaving, MaxSaving     int64
	MinChecking, MaxChecking int64
	// BatchSize is the number of customers inserted per load
	// transaction (default 1000).
	BatchSize int
}

func (c *LoadConfig) defaults() {
	if c.Customers == 0 {
		c.Customers = 18000
	}
	if c.MaxSaving == 0 {
		c.MinSaving, c.MaxSaving = 100_00, 500_00
	}
	if c.MaxChecking == 0 {
		c.MinChecking, c.MaxChecking = 50_00, 200_00
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1000
	}
}

// CreateSchema declares the four benchmark tables on db.
func CreateSchema(db *engine.DB) error {
	for _, s := range []*core.Schema{AccountSchema(), SavingSchema(), CheckingSchema(), ConflictSchema()} {
		if err := db.CreateTable(s); err != nil {
			return err
		}
	}
	return nil
}

// Load populates the database: cfg.Customers accounts with randomly
// generated balances (§IV), one Conflict row per customer and the fixed
// Conflict row 0. It returns the total money loaded (savings plus
// checking), which invariant checks use.
//
// Each batch of customers is one bulk insert (engine.DB.BulkInsert):
// one commit of the batch's rows in all four tables, logged as one
// commit frame and built in bulk rather than inserted row by row.
// Everything loaded is durable when Load returns, but the log is waited
// for once: the batches commit asynchronously, one behind the other, and
// Load waits for the last of them (the log's durable mark is a prefix of
// the commit order). A log device that fails underneath makes Load
// return its sticky error.
func Load(db *engine.DB, cfg LoadConfig) (total int64, err error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// The fixed conflict row for the single-row materialization ablation.
	fixed := core.Int(FixedConflictID)
	last, err := db.BulkInsert([]wal.RowImage{{Table: TableConflict, Key: fixed, Rec: core.Record{fixed, core.Int(0)}}})
	if err != nil {
		return 0, err
	}

	// One batch's rows, table by table, and the columns of their
	// records: reused from batch to batch, since the engine copies what
	// it keeps.
	size := min(cfg.BatchSize, cfg.Customers)
	rows := make([]wal.RowImage, 4*size)
	cols := make([]core.Value, 2*len(rows))
	for r := range rows {
		rows[r].Rec = cols[2*r : 2*r+2 : 2*r+2]
	}
	for start := 0; start < cfg.Customers; start += cfg.BatchSize {
		n := min(cfg.BatchSize, cfg.Customers-start)
		set := func(r int, table string, key, val core.Value) {
			rows[r].Table, rows[r].Key = table, key
			rows[r].Rec[0], rows[r].Rec[1] = key, val
		}
		for j := range n {
			i := start + j
			sav := cfg.MinSaving + rng.Int63n(cfg.MaxSaving-cfg.MinSaving+1)
			chk := cfg.MinChecking + rng.Int63n(cfg.MaxChecking-cfg.MinChecking+1)
			total += sav + chk
			id := core.Int(int64(i))
			set(j, TableAccount, core.Str(CustomerName(i)), id)
			set(n+j, TableSaving, id, core.Int(sav))
			set(2*n+j, TableChecking, id, core.Int(chk))
			set(3*n+j, TableConflict, id, core.Int(0))
		}
		if last, err = db.BulkInsert(rows[:4*n]); err != nil {
			return 0, err
		}
	}
	if err := db.WaitDurable(last); err != nil {
		return 0, err
	}
	return total, nil
}

// Open stands up the paper's database: it opens an engine from cfg with
// the simulated machine off, declares the schema and loads lc on that
// free hardware, then installs cfg.Res, the machine to be measured. It
// returns the database and the money Load put in it; on an error the
// database is closed. A tracer or a default transaction deadline goes
// in after Open returns (DB.SetTracer, DB.SetDefaultTxDeadline), so the
// load neither fills the rings nor spends a budget.
func Open(cfg engine.Config, lc LoadConfig) (*engine.DB, int64, error) {
	measured := cfg.Res
	cfg.Res = simres.Config{}
	db := engine.Open(cfg)
	err := CreateSchema(db)
	var total int64
	if err == nil {
		total, err = Load(db, lc)
	}
	if err != nil {
		db.Close()
		return nil, 0, err
	}
	db.SetResources(measured)
	return db, total, nil
}

// TotalMoney sums every savings and checking balance of the latest
// committed state; used by conservation invariants (WriteCheck's
// overdraft penalty burns money, so tests account for penalties
// explicitly).
func TotalMoney(db *engine.DB) (int64, error) {
	var total int64
	for _, t := range []string{TableSaving, TableChecking} {
		if err := db.ScanLatest(t, func(_ core.Value, rec core.Record) bool {
			total += rec[1].Int64()
			return true
		}); err != nil {
			return 0, err
		}
	}
	return total, nil
}
