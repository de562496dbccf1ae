package workload

import (
	"fmt"

	"sicost/internal/engine"
	"sicost/internal/faultinject"
	"sicost/internal/smallbank"
	"sicost/internal/storage"
	"sicost/internal/wal"
)

// ChaosConfig parameterizes a fault-injected workload run.
type ChaosConfig struct {
	// Specs are armed on the database's fault registry for the duration
	// of the run and disarmed afterwards.
	Specs []faultinject.Spec
	// ExpectSerializable makes a lost isolation guarantee an invariant
	// violation: the run's online checker (Config.Check, which must be
	// set) reporting a dependency cycle or an SI-rule violation in
	// Result.Check. Set it when the strategy/mode combination guarantees
	// serializable executions — fault injection must never change that.
	ExpectSerializable bool
}

// ChaosReport is the outcome of one chaos run: the workload result plus
// the standing-invariant audit.
type ChaosReport struct {
	Result *Result
	// InitialTotal and FinalTotal are smallbank.TotalMoney before and
	// after the run; conservation demands
	// FinalTotal == InitialTotal + Result.CommittedDelta.
	InitialTotal, FinalTotal int64
	// ConservationChecked is false when the mix contains WriteCheck,
	// whose overdraft penalty makes the committed delta unknowable to
	// the client.
	ConservationChecked bool
	// HeldLocks and QueuedLocks audit the lock table after the run;
	// both must be zero — an abort path that leaks a lock shows up
	// here.
	HeldLocks, QueuedLocks int
	// FaultStats snapshots per-point trigger counts (captured before
	// the specs are disarmed).
	FaultStats []faultinject.PointStats
	// Violations lists every invariant the run broke; empty means the
	// engine survived the fault plan cleanly.
	Violations []string
}

// OK reports whether every checked invariant held.
func (r *ChaosReport) OK() bool { return len(r.Violations) == 0 }

// Fired sums fault triggers across all points.
func (r *ChaosReport) Fired() uint64 {
	var n uint64
	for _, s := range r.FaultStats {
		n += s.Fired
	}
	return n
}

// ConservingMix is the chaos harness's default mix: the four programs
// whose committed money movement the client knows exactly (WriteCheck's
// overdraft penalty is unobservable, so it is excluded — see
// Result.CommittedDelta).
func ConservingMix() Mix {
	var m Mix
	m[smallbank.Balance] = 0.25
	m[smallbank.DepositChecking] = 0.30
	m[smallbank.TransactSaving] = 0.30
	m[smallbank.Amalgamate] = 0.15
	return m
}

// RunChaos executes the workload with chaos.Specs armed and audits the
// standing invariants afterwards: money conservation, no leaked locks
// or waiters, and (optionally) an unchanged serializability verdict,
// taken from the run's online checker (cfg.Check).
// The database must have been opened with engine.Config.Faults when
// chaos.Specs is non-empty.
func RunChaos(db *engine.DB, cfg Config, chaos ChaosConfig) (*ChaosReport, error) {
	reg := db.Faults()
	if reg == nil && len(chaos.Specs) > 0 {
		return nil, fmt.Errorf("workload: chaos run needs a database opened with engine.Config.Faults")
	}
	if chaos.ExpectSerializable && cfg.Check == nil {
		return nil, fmt.Errorf("workload: ChaosConfig.ExpectSerializable needs an online checker in Config.Check")
	}
	var zero Mix
	if cfg.Mix == zero {
		cfg.Mix = ConservingMix()
	}

	initial, err := smallbank.TotalMoney(db)
	if err != nil {
		return nil, fmt.Errorf("workload: initial audit: %w", err)
	}

	for _, s := range chaos.Specs {
		if err := reg.Arm(s); err != nil {
			return nil, fmt.Errorf("workload: arming %q: %w", s.Point, err)
		}
	}

	res, runErr := Run(db, cfg)

	rep := &ChaosReport{Result: res, InitialTotal: initial}
	if reg != nil {
		rep.FaultStats = reg.Stats()
		for _, s := range chaos.Specs {
			reg.Disarm(s.Point)
		}
	}
	if runErr != nil {
		return nil, runErr
	}

	rep.FinalTotal, err = smallbank.TotalMoney(db)
	if err != nil {
		return nil, fmt.Errorf("workload: final audit: %w", err)
	}
	rep.HeldLocks, rep.QueuedLocks = db.LockAudit()

	rep.ConservationChecked = cfg.Mix[smallbank.WriteCheck] == 0
	if rep.ConservationChecked && rep.FinalTotal != rep.InitialTotal+res.CommittedDelta {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"conservation: total money %d, want %d (initial %d + committed delta %d)",
			rep.FinalTotal, rep.InitialTotal+res.CommittedDelta, rep.InitialTotal, res.CommittedDelta))
	}
	if rep.HeldLocks != 0 || rep.QueuedLocks != 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"lock leak: %d held, %d queued after quiesce", rep.HeldLocks, rep.QueuedLocks))
	}
	if c := res.Check; chaos.ExpectSerializable && (!c.Serializable || c.SIViolations != 0) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(
			"serializability lost under faults: %s", c.Describe()))
	}
	return rep, nil
}

// DefaultFaultPlan is the fault plan the CLI's -chaos flag arms when no
// custom plan is given: low-rate injected errors on every layer's hot
// path plus occasional commit-stamp failures and WAL flush faults.
func DefaultFaultPlan() []faultinject.Spec {
	return []faultinject.Spec{
		{Point: engine.FaultBegin, Rate: 0.002, Action: faultinject.ActError},
		{Point: engine.FaultLockAcquire, Rate: 0.005, Action: faultinject.ActError},
		{Point: engine.FaultCommitStamp, Rate: 0.01, Action: faultinject.ActError},
		{Point: storage.FaultRowRead, Rate: 0.002, Action: faultinject.ActError},
		{Point: wal.FaultCommit, Rate: 0.005, Action: faultinject.ActError},
	}
}
