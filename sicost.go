// Package sicost is a from-scratch reproduction of
//
//	M. Alomari, M. Cahill, A. Fekete, U. Röhm:
//	"The Cost of Serializability on Platforms That Use Snapshot
//	Isolation", ICDE 2008.
//
// It bundles, as one library:
//
//   - a multi-version in-memory database engine with snapshot isolation
//     under the First-Updater-Wins rule (the PostgreSQL platform of the
//     paper), a commercial-platform variant in which SELECT...FOR UPDATE
//     participates in write-conflict detection, strict two-phase locking
//     and Cahill-style serializable SI (internal/engine over
//     internal/storage);
//   - the Static Dependency Graph theory: conflict edges, vulnerable
//     edges, dangerous structures, and the materialization/promotion
//     repairs (internal/sdg);
//   - the SmallBank benchmark with every strategy of the paper's §III-D
//     (internal/smallbank) and the workload driver, closed loop or
//     Poisson arrivals (internal/workload);
//   - a transaction-lifecycle trace (internal/trace) and a multi-version
//     serialization graph checker over it that certifies an execution
//     serializable or produces an anomaly witness (internal/checker);
//   - one experiment runner per table and figure of the evaluation
//     (internal/experiments, cmd/sibench).
//
// This package is the part a module outside this one can import: the
// names the README's quick-start block uses and nothing else.
// TestReadmeQuickStart runs that block statement for statement; it
// opens with
//
//	db := sicost.Open(sicost.EngineConfig{Mode: sicost.SnapshotFUW})
//	defer db.Close()
//	sicost.CreateSmallBank(db)
//	sicost.LoadSmallBank(db, sicost.LoadConfig{Customers: 1000})
//	err := sicost.RunSmallBank(db, sicost.StrategyPromoteWTUpd,
//	        sicost.WriteCheck, sicost.TxnParams{N1: sicost.CustomerName(1), V: 100_00})
package sicost

import (
	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
)

// EngineConfig assembles a database instance.
type EngineConfig = engine.Config

// SnapshotFUW is snapshot isolation under the First-Updater-Wins rule.
const SnapshotFUW = core.SnapshotFUW

// Open creates a database instance.
func Open(cfg EngineConfig) *engine.DB { return engine.Open(cfg) }

// IsRetriable reports whether an error is a transient concurrency
// failure (serialization failure, deadlock, lock-wait timeout, or a
// transaction shed by admission control): abort and rerun.
func IsRetriable(err error) bool { return core.IsRetriable(err) }

// SmallBank benchmark.
type (
	// TxnParams carries one invocation's arguments.
	TxnParams = smallbank.Params
	// LoadConfig parameterizes the initial population.
	LoadConfig = smallbank.LoadConfig
)

// WriteCheck is the SmallBank program of the paper's Program 1.
const WriteCheck = smallbank.WriteCheck

// StrategyPromoteWTUpd is Option WT by promotion: the cheapest repair
// the paper finds on PostgreSQL.
var StrategyPromoteWTUpd = smallbank.StrategyPromoteWTUpd

// CustomerName renders customer i's account name.
var CustomerName = smallbank.CustomerName

// CreateSmallBank declares the benchmark schema on db.
func CreateSmallBank(db *engine.DB) error { return smallbank.CreateSchema(db) }

// LoadSmallBank populates the benchmark tables.
func LoadSmallBank(db *engine.DB, cfg LoadConfig) (totalMoney int64, err error) {
	return smallbank.Load(db, cfg)
}

// RunSmallBank executes one transaction (begin/run/commit) under a
// strategy.
func RunSmallBank(db *engine.DB, s *smallbank.Strategy, typ smallbank.TxnType, p TxnParams) error {
	return smallbank.Run(db, s, typ, p)
}

// TraceOptions sizes a lifecycle trace recorder.
type TraceOptions = trace.Options

// NewTrace creates a lifecycle trace recorder; install it with
// db.SetTracer between transactions and read it with Drain.
var NewTrace = trace.New

// CheckTrace is the whole offline check of a drained stream: the
// committed transactions read out of it and their serialization graph
// searched for a cycle.
func CheckTrace(events []trace.Event) *checker.Report {
	return checker.Analyze(checker.Txns(events))
}
