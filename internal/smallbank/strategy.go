package smallbank

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"sicost/internal/core"
	"sicost/internal/sdg"
)

// Strategy is one of the paper's program-modification schemes: a name
// and how its modifications derive from the SDG of the base mix
// (Figure 1) — one edge and a technique, every vulnerable edge
// (NeutralizeAll), or the edge's fixed-row materialization. Plain SI
// derives none. The modifications are derived once and reach the
// running programs as statement rewrites.
type Strategy struct {
	Name       string
	edge       [2]string // from, to
	tech       sdg.Technique
	all, fixed bool
	mods       []sdg.Modification
	rewrites   [numTxnTypes][]rewrite
}

var wt, bw = [2]string{"WC", "TS"}, [2]string{"Bal", "WC"}

// The strategies evaluated in the paper (§III-D, Table I), plus the base
// SI configuration and the fixed-row ablation. StrategySI is unmodified
// SmallBank: fast, but it admits the dangerous structure Bal→WC→TS.
// Option WT repairs the WC→TS edge, Option BW the Bal→WC edge, by a
// Conflict update in both programs (materialize), an identity update
// in the edge's source (promote-upd) or its read FOR UPDATE
// (promote-sfu, sound on the commercial platform only); the ALL
// strategies repair every vulnerable edge without SDG analysis.
// MaterializeWT-fixed is MaterializeWT on the one Conflict row
// FixedConflictID (§II-B's "simplest approach"): correct, but every WC
// and TS contends on it.
var (
	StrategySI                 = &Strategy{Name: "SI"}
	StrategyMaterializeWT      = &Strategy{Name: "MaterializeWT", edge: wt, tech: sdg.Materialize}
	StrategyPromoteWTUpd       = &Strategy{Name: "PromoteWT-upd", edge: wt, tech: sdg.PromoteUpdate}
	StrategyPromoteWTSfu       = &Strategy{Name: "PromoteWT-sfu", edge: wt, tech: sdg.PromoteSFU}
	StrategyMaterializeBW      = &Strategy{Name: "MaterializeBW", edge: bw, tech: sdg.Materialize}
	StrategyPromoteBWUpd       = &Strategy{Name: "PromoteBW-upd", edge: bw, tech: sdg.PromoteUpdate}
	StrategyPromoteBWSfu       = &Strategy{Name: "PromoteBW-sfu", edge: bw, tech: sdg.PromoteSFU}
	StrategyMaterializeALL     = &Strategy{Name: "MaterializeALL", all: true, tech: sdg.Materialize}
	StrategyPromoteALL         = &Strategy{Name: "PromoteALL", all: true, tech: sdg.PromoteUpdate}
	StrategyMaterializeWTFixed = &Strategy{Name: "MaterializeWT-fixed", edge: wt, fixed: true}
)

// Strategies lists every predefined strategy in presentation order.
func Strategies() []*Strategy {
	return []*Strategy{
		StrategySI,
		StrategyMaterializeWT, StrategyPromoteWTUpd, StrategyPromoteWTSfu,
		StrategyMaterializeBW, StrategyPromoteBWUpd, StrategyPromoteBWSfu,
		StrategyMaterializeALL, StrategyPromoteALL,
		StrategyMaterializeWTFixed,
	}
}

// ByName resolves a strategy by its display name.
func ByName(name string) (*Strategy, error) {
	for _, s := range Strategies() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("smallbank: unknown strategy %q", name)
}

// rewrite is one modification as a running program applies it: an
// UPDATE appended after the program's own statements (materialize's
// Conflict update, promote-upd's identity update), or a SELECT FOR
// UPDATE that replaces the program's SELECT of its table (promote-sfu).
// slot is the customer: 0 for x or x1, 1 for x2, -1 for the fixed
// Conflict row (a Fixed access).
type rewrite struct {
	tech sdg.Technique
	stmt *stmt
	slot int
}

// deriveAll derives every strategy's modifications and rewrites on first
// use: a binary that runs no program (sisqld) skips the SDG analysis.
var deriveAll = sync.OnceFunc(func() {
	for _, s := range Strategies() {
		_, mods, err := s.derived()
		if err != nil {
			panic(err)
		}
		s.mods = mods
		for _, m := range mods {
			w := rewrite{tech: m.Technique}
			if m.Add.Fixed {
				w.slot = -1
			} else if m.Add.Param == "x2" {
				w.slot = 1
			}
			switch m.Technique {
			case sdg.Materialize:
				w.stmt = uConflict
			case sdg.PromoteUpdate:
				w.stmt = compile(fmt.Sprintf("UPDATE %s SET %s = %[2]s WHERE CustomerId = :x", m.Add.Table, m.Add.Cols[0]))
			case sdg.PromoteSFU:
				w.stmt = compile(fmt.Sprintf("SELECT %s FROM %s WHERE CustomerId = :x FOR UPDATE", m.Add.Cols[0], m.Add.Table))
			}
			typ := slices.IndexFunc(txnNames[:], func(n [2]string) bool { return n[1] == m.Program })
			s.rewrites[typ] = append(s.rewrites[typ], w)
		}
	}
})

// derived applies the strategy's repair to the base mix.
func (s *Strategy) derived() ([]*sdg.Program, []sdg.Modification, error) {
	base := BasePrograms()
	g, err := sdg.New(base...)
	switch {
	case err != nil:
		return nil, nil, err
	case s.all:
		return sdg.NeutralizeAll(base, s.tech)
	case s.fixed:
		return sdg.MaterializeFixedRow(base, g.Edge(s.edge[0], s.edge[1]))
	case s.edge[0] != "":
		return sdg.Neutralize(base, g.Edge(s.edge[0], s.edge[1]), s.tech)
	}
	return base, nil, nil
}

// Modifications returns the statements the strategy adds, as the SDG
// derives them, in the order the programs run them.
func (s *Strategy) Modifications() []sdg.Modification {
	deriveAll()
	return slices.Clone(s.mods)
}

// SDGPrograms returns the strategy's program mix in the SDG model: the
// base mix with its modifications applied.
func (s *Strategy) SDGPrograms() ([]*sdg.Program, error) {
	progs, _, err := s.derived()
	return progs, err
}

// SoundOn reports whether the strategy guarantees serializable
// executions on the platform: it modifies something, and every
// modification's technique is sound there.
func (s *Strategy) SoundOn(p core.Platform) bool {
	mods := s.Modifications()
	for _, m := range mods {
		if !m.Technique.SoundOn(p) {
			return false
		}
	}
	return len(mods) > 0
}

// GuaranteesSerializable reports whether the strategy is one of the
// repair schemes (anything but plain SI).
func (s *Strategy) GuaranteesSerializable() bool { return len(s.Modifications()) > 0 }

// ExtraUpdates summarises per program the tables the modifications
// update, as the rows of the paper's Table I: Conf, Sav, Check, with
// "(sfu)" for a read FOR UPDATE and "×n" for n updates of one table.
func (s *Strategy) ExtraUpdates() map[string][]string {
	short := map[string]string{TableConflict: "Conf", TableSaving: "Sav", TableChecking: "Check"}
	count := map[[2]string]int{}
	for _, m := range s.Modifications() {
		cell := short[m.Add.Table]
		if m.Technique == sdg.PromoteSFU {
			cell += "(sfu)"
		}
		count[[2]string{m.Program, cell}]++
	}
	out := map[string][]string{}
	for k, n := range count {
		if n > 1 {
			k[1] += fmt.Sprintf("×%d", n)
		}
		out[k[0]] = append(out[k[0]], k[1])
	}
	for _, cells := range out {
		sort.Strings(cells)
	}
	return out
}

// BasePrograms returns the unmodified SmallBank mix in the SDG model,
// as the recorder reads it from the programs (§III-C, Figure 1).
func BasePrograms() []*sdg.Program {
	out := make([]*sdg.Program, NumTxnTypes)
	for i := range out {
		out[i] = record(TxnType(i))
	}
	return out
}
