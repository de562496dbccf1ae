// Package checker validates executions for serializability after the
// fact. It reads the committed transactions out of the engine's
// lifecycle trace (Txns: start and commit timestamps plus the versions
// read and written — the history model of the timestamp-based checkers
// in PAPERS.md), builds the multi-version serialization graph (MVSG) —
// WR, WW and RW (antidependency) edges — and searches it for cycles
// (Analyze). An acyclic MVSG proves the recorded execution
// serializable; a cycle is a concrete non-serializability witness, such
// as the write skew and read-only anomalies that motivate the paper.
//
// The package judges the engine and therefore does not import it: the
// event stream (internal/trace) is the only thing it is told.
//
// The paper relies on the static theory (internal/sdg) to decide which
// program mixes are safe; this package is the dynamic counterpart the
// test suite uses to confirm the theory end-to-end: plain SI on the
// unmodified SmallBank mix produces cycles, while every repair strategy
// (and 2PL/SSI) never does.
package checker

import (
	"fmt"
	"sort"
	"strings"

	"sicost/internal/core"
	"sicost/internal/graph"
	"sicost/internal/trace"
)

// Ref identifies one version of one item: the version a transaction
// read, or the one it created (CSN = its commit CSN).
type Ref struct {
	Table string
	Key   core.Value
	CSN   uint64
}

// Txn is one committed transaction as the trace describes it.
type Txn struct {
	ID        uint64
	StartCSN  uint64
	CommitCSN uint64
	// Tag is the application's label (the SmallBank driver stores the
	// program name), for anomaly reports.
	Tag string
	// Reads lists the versions read, reads of the transaction's own
	// writes excluded; Writes lists the versions created.
	Reads  []Ref
	Writes []Ref
}

// Txns assembles the committed transactions of an event stream, in
// commit order: begin gives the snapshot, read-ver and write-ver events
// the two sets, commit the CSN and the tag. Aborted and unfinished
// transactions are dropped. A commit whose begin is not in the stream (a
// transaction open when recording started) is kept with StartCSN 0, as
// the online checker keeps its gap transactions.
func Txns(events []trace.Event) []Txn {
	open := make(map[uint64]*Txn)
	txn := func(id uint64) *Txn {
		t := open[id]
		if t == nil {
			t = &Txn{ID: id}
			open[id] = t
		}
		return t
	}
	var out []Txn
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case trace.EvBegin:
			txn(ev.Tx).StartCSN = ev.CSN
		case trace.EvReadVer:
			t := txn(ev.Tx)
			t.Reads = append(t.Reads, Ref{Table: ev.Table, Key: ev.Key, CSN: ev.CSN})
		case trace.EvWriteVer:
			t := txn(ev.Tx)
			t.Writes = append(t.Writes, Ref{Table: ev.Table, Key: ev.Key, CSN: ev.CSN})
		case trace.EvCommit:
			t := txn(ev.Tx)
			t.CommitCSN, t.Tag = ev.CSN, ev.Tag
			out = append(out, *t)
			delete(open, ev.Tx)
		case trace.EvAbort:
			delete(open, ev.Tx)
		}
	}
	return out
}

// DepKind labels an MVSG edge.
type DepKind uint8

// MVSG edge kinds.
const (
	WR DepKind = iota // T wrote the version U read
	WW                // T's version precedes U's version of the same item
	RW                // U read a version older than T's (antidependency)
)

// String names the kind.
func (k DepKind) String() string {
	switch k {
	case WR:
		return "wr"
	case WW:
		return "ww"
	default:
		return "rw"
	}
}

// Dep is one MVSG edge with its provenance.
type Dep struct {
	From, To uint64
	Kind     DepKind
	Table    string
	Key      core.Value
}

// Report is the result of an analysis pass.
type Report struct {
	Txns         int
	Edges        []Dep
	Serializable bool
	// Cycle is a witness cycle of transaction ids (first == last) when
	// not serializable.
	Cycle []uint64
	// CycleDeps are the edges along the witness cycle.
	CycleDeps []Dep
	// Tags maps transaction ids on the cycle to their application tags.
	Tags map[uint64]string
	// Writers is the set of transactions that committed at least one
	// write.
	Writers map[uint64]bool
}

// versionRecord is one committed version of one item.
type versionRecord struct {
	csn uint64
	tx  uint64
}

// Analyze builds the MVSG over the committed transactions and checks it
// for cycles.
func Analyze(txns []Txn) *Report {
	type itemKey struct {
		table string
		key   core.Value
	}
	writers := make(map[itemKey][]versionRecord)
	tags := make(map[uint64]string, len(txns))
	writerSet := make(map[uint64]bool)
	for _, in := range txns {
		tags[in.ID] = in.Tag
		if len(in.Writes) > 0 {
			writerSet[in.ID] = true
		}
		for _, w := range in.Writes {
			k := itemKey{w.Table, w.Key}
			writers[k] = append(writers[k], versionRecord{csn: w.CSN, tx: in.ID})
		}
	}
	for k := range writers {
		vs := writers[k]
		sort.Slice(vs, func(i, j int) bool { return vs[i].csn < vs[j].csn })
		writers[k] = vs
	}

	// nextWriter returns the creator of the first version after csn on
	// item k, or 0.
	nextWriter := func(k itemKey, csn uint64) (uint64, uint64) {
		vs := writers[k]
		i := sort.Search(len(vs), func(i int) bool { return vs[i].csn > csn })
		if i == len(vs) {
			return 0, 0
		}
		return vs[i].tx, vs[i].csn
	}

	var deps []Dep
	seen := make(map[Dep]bool)
	add := func(d Dep) {
		if d.From == d.To {
			return
		}
		if !seen[d] {
			seen[d] = true
			deps = append(deps, d)
		}
	}

	// WW edges: consecutive versions of each item.
	for k, vs := range writers {
		for i := 0; i+1 < len(vs); i++ {
			add(Dep{From: vs[i].tx, To: vs[i+1].tx, Kind: WW, Table: k.table, Key: k.key})
		}
	}
	// WR and RW edges from reads.
	for _, in := range txns {
		for _, r := range in.Reads {
			k := itemKey{r.Table, r.Key}
			// WR: the creator of the version read happens before the
			// reader. Reads of versions created outside the recorded
			// window (e.g. the loader ran before the recorder was
			// installed) have no source node; skip those.
			vs := writers[k]
			i := sort.Search(len(vs), func(i int) bool { return vs[i].csn >= r.CSN })
			if i < len(vs) && vs[i].csn == r.CSN {
				add(Dep{From: vs[i].tx, To: in.ID, Kind: WR, Table: k.table, Key: k.key})
			}
			// RW: the reader happens before the creator of the next
			// version (WW edges carry the order to later ones).
			if w, _ := nextWriter(k, r.CSN); w != 0 {
				add(Dep{From: in.ID, To: w, Kind: RW, Table: k.table, Key: k.key})
			}
		}
	}

	g := graph.New()
	for _, in := range txns {
		g.AddNode(txNode(in.ID))
	}
	for _, d := range deps {
		g.AddEdge(txNode(d.From), txNode(d.To))
	}

	rep := &Report{Txns: len(txns), Edges: deps, Serializable: true, Tags: tags, Writers: writerSet}
	cyc := g.FindCycle()
	if cyc == nil {
		return rep
	}
	rep.Serializable = false
	for _, n := range cyc {
		rep.Cycle = append(rep.Cycle, nodeTx(n))
	}
	// Attach one witness edge per cycle step.
	for i := 0; i+1 < len(rep.Cycle); i++ {
		for _, d := range deps {
			if d.From == rep.Cycle[i] && d.To == rep.Cycle[i+1] {
				rep.CycleDeps = append(rep.CycleDeps, d)
				break
			}
		}
	}
	return rep
}

func txNode(id uint64) string { return fmt.Sprintf("t%d", id) }

func nodeTx(n string) uint64 {
	var id uint64
	fmt.Sscanf(n, "t%d", &id)
	return id
}

// Classify inspects a witness cycle and names the anomaly when it has a
// well-known shape: "write skew" (a cycle of two transactions joined by
// two rw antidependencies) or "read-only anomaly" (a cycle in which some
// transaction performed no writes, per Fekete/O'Neil/O'Neil 2004).
// Other shapes report "non-serializable execution".
func (r *Report) Classify() string {
	if r.Serializable {
		return "serializable"
	}
	return ClassifyCycle(r.Cycle, r.CycleDeps, r.Writers)
}

// ClassifyCycle names the anomaly shape of one witness cycle: the
// transaction ids along the cycle (first repeated last), the edge per
// step, and the set of transactions that committed writes. It is the
// shared verdict vocabulary of this offline analyzer and the online
// windowed checker (internal/onlinecheck), so the cross-validation
// suite can compare classifications verbatim.
func ClassifyCycle(cycle []uint64, cycleDeps []Dep, writers map[uint64]bool) string {
	rw := 0
	for _, d := range cycleDeps {
		if d.Kind == RW {
			rw++
		}
	}
	// Distinct transactions on the cycle (cycle repeats the first node).
	distinct := map[uint64]bool{}
	for _, id := range cycle {
		distinct[id] = true
	}
	readOnly := false
	for id := range distinct {
		if !writers[id] {
			readOnly = true
		}
	}
	switch {
	case len(distinct) == 2 && rw == 2:
		return "write skew"
	case readOnly && rw >= 2:
		return "read-only anomaly"
	default:
		return "non-serializable execution"
	}
}

// Describe renders the report for humans.
func (r *Report) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "checked %d transactions, %d dependencies: ", r.Txns, len(r.Edges))
	if r.Serializable {
		b.WriteString("serializable (MVSG acyclic)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "NOT serializable (%s)\n", r.Classify())
	b.WriteString("witness cycle:\n")
	for i, d := range r.CycleDeps {
		from, to := r.Cycle[i], r.Cycle[i+1]
		fmt.Fprintf(&b, "  t%d(%s) --%s[%s.%v]--> t%d(%s)\n",
			from, r.Tags[from], d.Kind, d.Table, d.Key, to, r.Tags[to])
	}
	return b.String()
}
