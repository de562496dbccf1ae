package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"sicost/internal/core"
)

// jsonEvent is the JSONL wire form of an Event: stable field names,
// enums as strings, zero-valued fields omitted. One event per line.
type jsonEvent struct {
	TS     int64    `json:"ts"`
	Tx     uint64   `json:"tx,omitempty"`
	Kind   string   `json:"kind"`
	Table  string   `json:"table,omitempty"`
	Key    *jsonKey `json:"key,omitempty"`
	CSN    uint64   `json:"csn,omitempty"`
	Depth  int      `json:"depth,omitempty"`
	WaitNS int64    `json:"wait_ns,omitempty"`
	Reason string   `json:"reason,omitempty"`
	Bytes  int      `json:"bytes,omitempty"`
	Tag    string   `json:"tag,omitempty"`
}

// jsonKey is the wire form of a core.Value key: exactly one of the
// fields is set (a NULL key is encoded as an absent "key").
type jsonKey struct {
	Int *int64  `json:"int,omitempty"`
	Str *string `json:"str,omitempty"`
}

// kindByName inverts kindNames for parsing.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for i, n := range kindNames {
		m[n] = Kind(i)
	}
	return m
}()

// conflictByName inverts conflictNames for parsing.
var conflictByName = func() map[string]uint8 {
	m := make(map[string]uint8, len(conflictNames))
	for i, n := range conflictNames {
		m[n] = uint8(i)
	}
	return m
}()

// abortByName maps core.AbortReason wire names back to their values.
var abortByName = func() map[string]core.AbortReason {
	m := make(map[string]core.AbortReason)
	for r := core.AbortNone; r <= core.AbortOther; r++ {
		m[r.String()] = r
	}
	return m
}()

// MarshalEvent encodes one event as a single JSON line (no trailing
// newline).
func MarshalEvent(ev Event) ([]byte, error) {
	if int(ev.Kind) >= len(kindNames) {
		return nil, fmt.Errorf("trace: cannot marshal unknown kind %d", ev.Kind)
	}
	je := jsonEvent{
		TS:     ev.TS,
		Tx:     ev.Tx,
		Kind:   ev.Kind.String(),
		Table:  ev.Table,
		CSN:    ev.CSN,
		Depth:  ev.Depth,
		WaitNS: ev.WaitNS,
		Bytes:  ev.Bytes,
		Tag:    ev.Tag,
	}
	switch ev.Key.K {
	case core.KindInt:
		i := ev.Key.I
		je.Key = &jsonKey{Int: &i}
	case core.KindString:
		s := ev.Key.S
		je.Key = &jsonKey{Str: &s}
	}
	switch ev.Kind {
	case EvAbort, EvLockWake:
		je.Reason = core.AbortReason(ev.Reason).String()
	case EvConflict:
		je.Reason = ConflictName(ev.Reason)
	}
	return json.Marshal(je)
}

// UnmarshalEvent decodes one JSON line produced by MarshalEvent. Unknown
// kind or reason names are errors — the schema is closed, which is what
// lets Validate promise that every abort reason is in the taxonomy.
func UnmarshalEvent(line []byte) (Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return Event{}, fmt.Errorf("trace: bad event line: %w", err)
	}
	kind, ok := kindByName[je.Kind]
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown event kind %q", je.Kind)
	}
	ev := Event{
		TS:     je.TS,
		Tx:     je.Tx,
		Kind:   kind,
		Table:  je.Table,
		CSN:    je.CSN,
		Depth:  je.Depth,
		WaitNS: je.WaitNS,
		Bytes:  je.Bytes,
		Tag:    je.Tag,
	}
	if je.Key != nil {
		switch {
		case je.Key.Int != nil:
			ev.Key = core.Int(*je.Key.Int)
		case je.Key.Str != nil:
			ev.Key = core.Str(*je.Key.Str)
		}
	}
	if je.Reason != "" {
		switch kind {
		case EvAbort, EvLockWake:
			r, ok := abortByName[je.Reason]
			if !ok {
				return Event{}, fmt.Errorf("trace: abort reason %q not in taxonomy", je.Reason)
			}
			ev.Reason = uint8(r)
		case EvConflict:
			c, ok := conflictByName[je.Reason]
			if !ok {
				return Event{}, fmt.Errorf("trace: unknown conflict cause %q", je.Reason)
			}
			ev.Reason = c
		default:
			return Event{}, fmt.Errorf("trace: %s event cannot carry reason %q", kind, je.Reason)
		}
	}
	return ev, nil
}

// WriteJSONL streams events to w, one JSON object per line — the
// format behind cmd/smallbank's -trace flag.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for i := range events {
		line, err := MarshalEvent(events[i])
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseJSONL reads a JSONL event stream back. Blank lines are skipped;
// any malformed line fails the parse with its line number.
func ParseJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		ev, err := UnmarshalEvent(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading JSONL: %w", err)
	}
	return out, nil
}
