// Package histories is the schedule language of the isolation gates: a
// compact textual DSL for multi-transaction interleavings (Parse), and
// the paper's anomaly interleavings written in it (scripts.go). The
// language only describes a schedule; internal/detsim executes one, step
// by step against the engine. It exists to port the classic
// isolation-level conformance histories — the phenomena catalogue of
// Berenson et al. ("A Critique of ANSI SQL Isolation Levels", SIGMOD
// 1995, the paper's reference [2]) — as an executable test matrix across
// the engine's concurrency-control modes (phenomena_test.go).
//
// A history is a whitespace-separated list of steps:
//
//	b1          begin transaction 1
//	r1(x)       transaction 1 reads item x
//	w1(x,5)     transaction 1 writes value 5 to item x
//	u1(x)       transaction 1 SELECT ... FOR UPDATE on item x
//	c1          commit transaction 1
//	a1          abort transaction 1
//
// Items are string keys of the single table Table, pre-loaded by the
// runner.
package histories

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is the single table histories run against.
const Table = "H"

// OpKind is a step's operation.
type OpKind uint8

// Step operations.
const (
	OpBegin OpKind = iota
	OpRead
	OpWrite
	OpSFU
	OpCommit
	OpAbort
)

// Step is one parsed history step.
type Step struct {
	Kind OpKind
	Txn  int
	Item string
	Val  int64
}

// Parse parses the DSL.
func Parse(history string) ([]Step, error) {
	var steps []Step
	for _, tok := range strings.Fields(history) {
		s, err := parseStep(tok)
		if err != nil {
			return nil, err
		}
		steps = append(steps, s)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("histories: empty history")
	}
	return steps, nil
}

func parseStep(tok string) (Step, error) {
	if len(tok) < 2 {
		return Step{}, fmt.Errorf("histories: bad step %q", tok)
	}
	var kind OpKind
	switch tok[0] {
	case 'b':
		kind = OpBegin
	case 'r':
		kind = OpRead
	case 'w':
		kind = OpWrite
	case 'u':
		kind = OpSFU
	case 'c':
		kind = OpCommit
	case 'a':
		kind = OpAbort
	default:
		return Step{}, fmt.Errorf("histories: unknown op in %q", tok)
	}
	rest := tok[1:]
	argStart := strings.IndexByte(rest, '(')
	numPart := rest
	if argStart >= 0 {
		numPart = rest[:argStart]
	}
	txn, err := strconv.Atoi(numPart)
	if err != nil {
		return Step{}, fmt.Errorf("histories: bad transaction number in %q", tok)
	}
	s := Step{Kind: kind, Txn: txn}
	switch kind {
	case OpRead, OpWrite, OpSFU:
		if argStart < 0 || !strings.HasSuffix(rest, ")") {
			return Step{}, fmt.Errorf("histories: %q needs (item...) argument", tok)
		}
		args := rest[argStart+1 : len(rest)-1]
		parts := strings.Split(args, ",")
		s.Item = strings.TrimSpace(parts[0])
		if s.Item == "" {
			return Step{}, fmt.Errorf("histories: empty item in %q", tok)
		}
		if kind == OpWrite {
			if len(parts) != 2 {
				return Step{}, fmt.Errorf("histories: write %q needs (item,value)", tok)
			}
			v, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
			if err != nil {
				return Step{}, fmt.Errorf("histories: bad value in %q", tok)
			}
			s.Val = v
		} else if len(parts) != 1 {
			return Step{}, fmt.Errorf("histories: %q takes a single item", tok)
		}
	default:
		if argStart >= 0 {
			return Step{}, fmt.Errorf("histories: %q takes no argument", tok)
		}
	}
	return s, nil
}
