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
// Quick start (see examples/quickstart for the runnable version):
//
//	db := sicost.Open(sicost.EngineConfig{Mode: sicost.SnapshotFUW})
//	defer db.Close()
//	if err := sicost.CreateSmallBank(db); err != nil { ... }
//	sicost.LoadSmallBank(db, sicost.LoadConfig{Customers: 100})
//	err := sicost.RunSmallBank(db, sicost.StrategyPromoteWTUpd,
//	        sicost.WriteCheck, sicost.TxnParams{N1: sicost.CustomerName(1), V: 100})
package sicost

import (
	"sicost/internal/checker"
	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/experiments"
	"sicost/internal/sdg"
	"sicost/internal/smallbank"
	"sicost/internal/trace"
	"sicost/internal/workload"
)

// Engine types.
type (
	// DB is a database instance (one simulated server).
	DB = engine.DB
	// Tx is a transaction handle.
	Tx = engine.Tx
	// EngineConfig assembles a database instance.
	EngineConfig = engine.Config
	// CostModel holds per-platform strategy penalties.
	CostModel = engine.CostModel

	// Value is a typed column value; Record is a row image; Schema
	// declares a table with its Columns.
	Value  = core.Value
	Record = core.Record
	Schema = core.Schema
	Column = core.Column
)

// Column kinds.
const (
	KindInt    = core.KindInt
	KindString = core.KindString
)

// Concurrency-control modes and platforms.
const (
	SnapshotFUW    = core.SnapshotFUW
	Strict2PL      = core.Strict2PL
	SerializableSI = core.SerializableSI

	PlatformPostgres   = core.PlatformPostgres
	PlatformCommercial = core.PlatformCommercial
)

// Engine errors.
var (
	ErrSerialization   = core.ErrSerialization
	ErrDeadlock        = core.ErrDeadlock
	ErrNotFound        = core.ErrNotFound
	ErrUniqueViolation = core.ErrUniqueViolation
	ErrRollback        = core.ErrRollback
	ErrTxDone          = core.ErrTxDone
)

// Open creates a database instance.
func Open(cfg EngineConfig) *DB { return engine.Open(cfg) }

// IsRetriable reports whether an error is a transient concurrency
// failure (serialization failure or deadlock): abort and rerun.
func IsRetriable(err error) bool { return core.IsRetriable(err) }

// Int and Str construct column values; Null is the NULL value.
var (
	Int  = core.Int
	Str  = core.Str
	Null = core.Null
)

// SDG theory.
type (
	// Program is a transaction program abstracted to parameterized
	// read/write sets.
	Program = sdg.Program
	// Access is one data access of a Program.
	Access = sdg.Access
	// SDG is a computed static dependency graph.
	SDG = sdg.Graph
	// DangerousStructure is two consecutive vulnerable edges on a cycle.
	DangerousStructure = sdg.DangerousStructure
	// Technique is a repair technique (materialize / promote).
	Technique = sdg.Technique
)

// Repair techniques.
const (
	Materialize   = sdg.Materialize
	PromoteUpdate = sdg.PromoteUpdate
	PromoteSFU    = sdg.PromoteSFU
)

// Access kinds for Program declarations.
const (
	ReadAccess     = sdg.Read
	WriteAccess    = sdg.Write
	PredReadAccess = sdg.PredRead
)

// NewSDG computes the static dependency graph of a program mix.
func NewSDG(programs ...*Program) (*SDG, error) { return sdg.New(programs...) }

// Neutralize applies a repair technique to one SDG edge, returning the
// modified program mix.
var Neutralize = sdg.Neutralize

// SmallBank benchmark.
type (
	// Strategy is a program-modification scheme of the paper's §III-D.
	Strategy = smallbank.Strategy
	// TxnType names one of the five SmallBank programs.
	TxnType = smallbank.TxnType
	// TxnParams carries one invocation's arguments.
	TxnParams = smallbank.Params
	// LoadConfig parameterizes the initial population.
	LoadConfig = smallbank.LoadConfig
)

// The five SmallBank transactions.
const (
	Balance         = smallbank.Balance
	DepositChecking = smallbank.DepositChecking
	TransactSaving  = smallbank.TransactSaving
	Amalgamate      = smallbank.Amalgamate
	WriteCheck      = smallbank.WriteCheck
)

// The paper's strategies (§III-D, Table I).
var (
	StrategySI             = smallbank.StrategySI
	StrategyMaterializeWT  = smallbank.StrategyMaterializeWT
	StrategyPromoteWTUpd   = smallbank.StrategyPromoteWTUpd
	StrategyPromoteWTSfu   = smallbank.StrategyPromoteWTSfu
	StrategyMaterializeBW  = smallbank.StrategyMaterializeBW
	StrategyPromoteBWUpd   = smallbank.StrategyPromoteBWUpd
	StrategyPromoteBWSfu   = smallbank.StrategyPromoteBWSfu
	StrategyMaterializeALL = smallbank.StrategyMaterializeALL
	StrategyPromoteALL     = smallbank.StrategyPromoteALL
)

// Strategies lists every predefined strategy; StrategyByName resolves
// one by display name.
var (
	Strategies     = smallbank.Strategies
	StrategyByName = smallbank.ByName
)

// CustomerName renders customer i's account name.
var CustomerName = smallbank.CustomerName

// SmallBankPrograms returns the benchmark's unmodified mix in the SDG
// model (the paper's Figure 1 input).
var SmallBankPrograms = smallbank.BasePrograms

// CreateSmallBank declares the benchmark schema on db.
func CreateSmallBank(db *DB) error { return smallbank.CreateSchema(db) }

// LoadSmallBank populates the benchmark tables.
func LoadSmallBank(db *DB, cfg LoadConfig) (totalMoney int64, err error) {
	return smallbank.Load(db, cfg)
}

// RunSmallBank executes one transaction (begin/run/commit) under a
// strategy.
func RunSmallBank(db *DB, s *Strategy, typ TxnType, p TxnParams) error {
	return smallbank.Run(db, s, typ, p)
}

// Workload driver.
type (
	// WorkloadConfig parameterizes a run: MPL closed-loop clients or
	// Rate Poisson arrivals per second.
	WorkloadConfig = workload.Config
	// WorkloadResult is its outcome.
	WorkloadResult = workload.Result
	// Mix assigns probabilities to the five transactions.
	Mix = workload.Mix
)

// Workload mixes and runner.
var (
	UniformMix      = workload.UniformMix
	BalanceHeavyMix = workload.BalanceHeavyMix
	RunWorkload     = workload.Run
)

// Serializability checking: the engine says what a transaction read and
// wrote in its lifecycle trace and nowhere else, and the checker is two
// functions over that stream.
type (
	// Trace records lifecycle events; install it with db.SetTracer
	// between transactions and read it with Drain.
	Trace = trace.Recorder
	// TraceOptions sizes a Trace.
	TraceOptions = trace.Options
	// TraceEvent is one recorded event.
	TraceEvent = trace.Event
	// CheckedTxn is one committed transaction as the trace describes it.
	CheckedTxn = checker.Txn
	// CheckReport is an analysis outcome (with anomaly witness).
	CheckReport = checker.Report
)

// NewTrace creates a recorder; TraceTxns reads the committed
// transactions out of a drained stream and CheckTxns builds and searches
// their serialization graph.
var (
	NewTrace  = trace.New
	TraceTxns = checker.Txns
	CheckTxns = checker.Analyze
)

// CheckTrace is the whole offline check of a drained stream.
func CheckTrace(events []TraceEvent) *CheckReport { return CheckTxns(TraceTxns(events)) }

// Experiments (tables and figures of the paper).
type (
	// Experiment regenerates one table or figure.
	Experiment = experiments.Experiment
	// ExperimentConfig controls sweep size and fidelity.
	ExperimentConfig = experiments.Config
	// ExperimentResult is a rendered outcome.
	ExperimentResult = experiments.Result
)

// Experiment access and platform profiles.
var (
	AllExperiments   = experiments.All
	ExperimentByID   = experiments.ByID
	RenderExperiment = experiments.Render
	PostgresDB       = experiments.PostgresDB
	CommercialDB     = experiments.CommercialDB
)
