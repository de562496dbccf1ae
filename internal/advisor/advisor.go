// Package advisor implements the tool the paper's conclusion asks for:
//
//	"In future work, we intend to develop a performance model that can
//	 predict the impact of different mechanisms; we especially hope for
//	 a tool that can suggest which vulnerable edges to deal with, for
//	 least impact on performance."
//
// Given a program mix (in the SDG model), the workload shape (mix
// weights, hotspot, MPL) and a platform profile (the same cost model the
// simulated engine charges), the advisor enumerates the repair options —
// each minimal fix set × each applicable technique, plus the
// no-analysis ALL strategies — predicts the throughput of each with a
// first-order analytic model, and ranks them.
//
// The model is deliberately simple and fully documented:
//
//	service time  S_p = TxnCPU + n_p·StmtCPU + Σ penalties
//	statements    n_p = |base accesses_p| + 2 per materialize or
//	                    promote-upd (a read and a write; a
//	                    promote-sfu replaces a read)
//	updater tax   U_p = UpdaterCommitCPU            (if p updates)
//	wal wait      W_p = 1.5·Fsync                   (if p updates; group
//	                                                 commit amortizes
//	                                                 the device, not
//	                                                 the wait)
//	R0   = Σ_p w_p (S_p + U_p + W_p)                (response, no queue)
//	Xcap = 1 / Σ_p w_p (S_p + U_p)                  (one virtual CPU)
//	X(m) = min(m / R0, Xcap) · (1 − waste(m))
//
// where p updates when it writes a row, or when it select-for-updates
// one on the commercial platform: there, as in Oracle, a FOR UPDATE
// lock generates redo and commits like a write, while on PostgreSQL a
// program whose only added access is a promote-sfu commits read-only.
// waste(m) accounts for aborted work from write-write collisions on the
// hotspot (First-Updater-Wins aborts plus retries). Predictions
// are for *ranking* repair options; the validation experiment
// (ablation-advisor) compares the predicted ordering against measured
// throughput.
package advisor

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sicost/internal/core"
	"sicost/internal/engine"
	"sicost/internal/sdg"
	"sicost/internal/simres"
)

// Workload describes the offered load.
type Workload struct {
	// Weights maps program name → fraction of transactions (must sum
	// to ~1 over the mix).
	Weights map[string]float64
	// HotspotSize and HotspotProb shape data contention as in the
	// benchmark driver (90% of transactions on H customers).
	HotspotSize int
	HotspotProb float64
	// MPL is the multiprogramming level the prediction targets.
	MPL int
}

// Platform carries the cost profile the engine charges.
type Platform struct {
	Name  core.Platform
	Res   simres.Config
	Fsync time.Duration
	Cost  engine.CostModel
}

// Option is one candidate repair.
type Option struct {
	// Name identifies the option ("WC->TS:promote-upd", "all:materialize").
	Name string
	// Technique applied.
	Technique sdg.Technique
	// Programs is the repaired mix; Mods the added statements.
	Programs []*sdg.Program
	Mods     []sdg.Modification
}

// Prediction is the model's verdict on one option.
type Prediction struct {
	Option Option
	// TPS is the predicted throughput at the workload's MPL.
	TPS float64
	// RelativeToBase is TPS divided by the unmodified mix's predicted
	// TPS at the same MPL.
	RelativeToBase float64
	// UpdaterFraction is the predicted share of transactions that
	// commit as updaters (and therefore wait for the log).
	UpdaterFraction float64
	// AbortWaste is the predicted fraction of work lost to
	// serialization aborts and retries.
	AbortWaste float64
	// Sound is false when the technique does not guarantee
	// serializability on this platform (sfu promotion on PostgreSQL).
	Sound bool
}

// updates reports whether p commits as an updater on plat: the engine
// logs and syncs its commit. p is the modified program, whose accesses
// hold one added write per modification; a promote-sfu's write is a
// FOR UPDATE lock, which commits like a write only on the commercial
// platform.
func updates(p *sdg.Program, mods []sdg.Modification, plat Platform) bool {
	writes := len(p.Writes())
	if plat.Name != core.PlatformCommercial {
		for _, m := range mods {
			if m.Program == p.Name && m.Technique == sdg.PromoteSFU {
				writes--
			}
		}
	}
	return writes > 0
}

// programCost computes the per-transaction costs of one program. p is
// the modified program, whose accesses hold one added access per
// modification; the engine runs a materialize or promote-upd as two
// statements and a promote-sfu as none.
func programCost(p *sdg.Program, mods []sdg.Modification, plat Platform) (service, updaterTax, walWait time.Duration) {
	stmts := len(p.Accesses)
	for _, m := range mods {
		if m.Program != p.Name {
			continue
		}
		switch m.Technique {
		case sdg.Materialize:
			stmts++ // the Conflict row is read, then written
			service += plat.Cost.MaterializeWrite
		case sdg.PromoteUpdate:
			stmts++ // the identity update reads its row, then writes it
			service += plat.Cost.PromoteUpdate
		case sdg.PromoteSFU:
			stmts-- // FOR UPDATE replaces the program's own read
			service += plat.Cost.SelectForUpdate
		}
	}
	service += plat.Res.TxnCPU + time.Duration(stmts)*plat.Res.StmtCPU
	if updates(p, mods, plat) {
		updaterTax = plat.Res.UpdaterCommitCPU
		// Group commit amortizes the device across committers but each
		// committer still waits ~1–2 flush intervals; 1.5 is the mean
		// for a random arrival against a busy flusher.
		walWait = time.Duration(1.5 * float64(plat.Fsync))
	}
	return service, updaterTax, walWait
}

// collisionRate estimates, for one transaction of program P, the
// expected number of concurrent transactions holding a write-write
// conflict with it (the FUW abort driver). Two instances collide when
// they write a common table with parameters that can coincide — on the
// hotspot that happens with probability hotProb²/H per pair (or 1 for a
// shared fixed row).
func collisionRate(p *sdg.Program, progs map[string]*sdg.Program, w Workload) float64 {
	if w.HotspotSize <= 0 {
		return 0
	}
	perPair := w.HotspotProb * w.HotspotProb / float64(w.HotspotSize)
	rate := 0.0
	for qName, weight := range w.Weights {
		q := progs[qName]
		if q == nil {
			continue
		}
		pairProb := 0.0
		for _, wp := range p.Writes() {
			for _, wq := range q.Writes() {
				if wp.Table != wq.Table {
					continue
				}
				if wp.Fixed && wq.Fixed {
					if wp.Param == wq.Param {
						pairProb = 1 // shared fixed row: always collide
					}
					continue
				}
				if pairProb < perPair {
					pairProb = perPair
				}
			}
		}
		rate += weight * pairProb
	}
	return rate
}

// Predict evaluates the model for one program mix.
func Predict(progs []*sdg.Program, mods []sdg.Modification, w Workload, plat Platform) Prediction {
	byName := make(map[string]*sdg.Program, len(progs))
	for _, p := range progs {
		byName[p.Name] = p
	}
	var r0, cpu float64 // seconds
	updFrac := 0.0
	for name, weight := range w.Weights {
		p := byName[name]
		if p == nil {
			continue
		}
		s, u, wl := programCost(p, mods, plat)
		r0 += weight * (s + u + wl).Seconds()
		cpu += weight * (s + u).Seconds()
		if updates(p, mods, plat) {
			updFrac += weight
		}
	}
	if cpu <= 0 || r0 <= 0 {
		return Prediction{}
	}
	x := float64(w.MPL) / r0
	if cap := 1.0 / cpu; x > cap {
		x = cap
	}
	// Abort waste: each in-flight transaction sees ~(MPL−1) concurrent
	// peers over its response time; every ww collision forces one abort
	// and retry, wasting roughly one service time.
	waste := 0.0
	for name, weight := range w.Weights {
		p := byName[name]
		if p == nil || p.ReadOnly() {
			continue
		}
		waste += weight * collisionRate(p, byName, w) * float64(w.MPL-1)
	}
	if waste > 0.9 {
		waste = 0.9
	}
	x *= 1 - waste
	return Prediction{TPS: x, UpdaterFraction: updFrac, AbortWaste: waste}
}

// Advise enumerates repair options for the mix and ranks them by
// predicted throughput at the workload's MPL (descending). The base
// (unrepaired) mix's prediction anchors RelativeToBase.
func Advise(base []*sdg.Program, w Workload, plat Platform) ([]Prediction, error) {
	g, err := sdg.New(base...)
	if err != nil {
		return nil, err
	}
	basePred := Predict(base, nil, w, plat)
	if g.IsSafe() {
		return nil, fmt.Errorf("advisor: the mix is already SI-safe; nothing to repair")
	}

	var out []Prediction
	techniques := []sdg.Technique{sdg.Materialize, sdg.PromoteUpdate, sdg.PromoteSFU}

	addOption := func(name string, tech sdg.Technique, progs []*sdg.Program, mods []sdg.Modification) {
		pred := Predict(progs, mods, w, plat)
		pred.Option = Option{Name: name, Technique: tech, Programs: progs, Mods: mods}
		pred.Sound = tech.SoundOn(plat.Name)
		if basePred.TPS > 0 {
			pred.RelativeToBase = pred.TPS / basePred.TPS
		}
		out = append(out, pred)
	}

	for _, fixSet := range g.MinimalFixSets() {
		for _, tech := range techniques {
			progs := base
			var allMods []sdg.Modification
			ok := true
			for _, edgeID := range fixSet {
				gg, err := sdg.New(progs...)
				if err != nil {
					return nil, err
				}
				from, to, _ := strings.Cut(edgeID, "->")
				edge := gg.Edge(from, to)
				if edge == nil {
					ok = false
					break
				}
				next, mods, err := sdg.Neutralize(progs, edge, tech)
				if err != nil {
					ok = false // e.g. promotion vs predicate read
					break
				}
				progs = next
				allMods = append(allMods, mods...)
			}
			if !ok {
				continue
			}
			name := fmt.Sprintf("%s:%s", strings.Join(fixSet, "+"), tech)
			addOption(name, tech, progs, allMods)
		}
	}

	// The no-analysis ALL strategies, for comparison.
	for _, tech := range []sdg.Technique{sdg.Materialize, sdg.PromoteUpdate} {
		progs, mods, err := sdg.NeutralizeAll(base, tech)
		if err != nil {
			continue
		}
		addOption(fmt.Sprintf("all:%s", tech), tech, progs, mods)
	}

	sort.SliceStable(out, func(i, j int) bool {
		// Sound options first, then by predicted TPS.
		if out[i].Sound != out[j].Sound {
			return out[i].Sound
		}
		return out[i].TPS > out[j].TPS
	})
	return out, nil
}

// Render formats a ranked advice list.
func Render(preds []Prediction) string {
	s := fmt.Sprintf("%-34s %-6s %10s %8s %9s %7s\n",
		"option", "sound", "pred. TPS", "vs base", "updaters", "waste")
	for _, p := range preds {
		s += fmt.Sprintf("%-34s %-6v %10.0f %7.0f%% %8.0f%% %6.1f%%\n",
			p.Option.Name, p.Sound, p.TPS, 100*p.RelativeToBase,
			100*p.UpdaterFraction, 100*p.AbortWaste)
	}
	return s
}
