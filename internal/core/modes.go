package core

import "fmt"

// CCMode selects the concurrency-control algorithm a database instance
// runs. The paper's platforms use SnapshotFUW (PostgreSQL) and an SI
// variant with different select-for-update semantics (the commercial
// platform); Strict2PL and SerializableSI are the baselines/extensions
// discussed in §II-D and in later work.
type CCMode uint8

// Concurrency-control modes.
const (
	// SnapshotFUW is snapshot isolation with the First-Updater-Wins rule:
	// writers take row locks, block behind concurrent writers, and abort
	// if the row version they would overwrite is newer than their
	// snapshot. This is PostgreSQL's "isolation level serializable" of
	// the paper's era.
	SnapshotFUW CCMode = iota
	// Strict2PL is conventional strict two-phase locking with shared and
	// exclusive row locks and deadlock detection; reads see the latest
	// committed version.
	Strict2PL
	// SerializableSI is SI extended with runtime rw-antidependency
	// tracking (Cahill-style SSI): a transaction with both an incoming
	// and an outgoing vulnerable antidependency aborts. Guarantees
	// serializable executions without application changes.
	SerializableSI
)

// String names the mode.
func (m CCMode) String() string {
	switch m {
	case SnapshotFUW:
		return "si-fuw"
	case Strict2PL:
		return "2pl"
	case SerializableSI:
		return "ssi"
	default:
		return fmt.Sprintf("ccmode(%d)", uint8(m))
	}
}

// Platform selects the behavioural profile of the simulated DBMS: how
// SELECT ... FOR UPDATE interacts with concurrency control and which cost
// model shapes throughput (§IV-F shows the two platforms differ).
type Platform uint8

// Platforms reproduced from the paper.
const (
	// PlatformPostgres models PostgreSQL 8.2: select-for-update only
	// locks (a later writer does not conflict with a committed sfu —
	// the §II-C interleaving is allowed), materialized conflict-table
	// updates carry an extra per-statement cost, throughput plateaus at
	// high MPL.
	PlatformPostgres Platform = iota
	// PlatformCommercial models the unnamed commercial system:
	// select-for-update is treated like an update for concurrency
	// control, promotion by update is comparatively expensive, and
	// throughput peaks near MPL 20-25 then declines due to per-session
	// overhead.
	PlatformCommercial
)

// String names the platform.
func (p Platform) String() string {
	switch p {
	case PlatformPostgres:
		return "postgres"
	case PlatformCommercial:
		return "commercial"
	default:
		return fmt.Sprintf("platform(%d)", uint8(p))
	}
}

// ParseProfile resolves the -platform and -mode names every binary
// takes ("postgres" | "commercial", "si" | "2pl" | "ssi"); an unknown
// name is an error that quotes it.
func ParseProfile(platform, mode string) (Platform, CCMode, error) {
	var p Platform
	switch platform {
	case "postgres":
		p = PlatformPostgres
	case "commercial":
		p = PlatformCommercial
	default:
		return 0, 0, fmt.Errorf("unknown platform %q (want postgres or commercial)", platform)
	}
	switch mode {
	case "si":
		return p, SnapshotFUW, nil
	case "2pl":
		return p, Strict2PL, nil
	case "ssi":
		return p, SerializableSI, nil
	default:
		return 0, 0, fmt.Errorf("unknown mode %q (want si, 2pl or ssi)", mode)
	}
}
