package detsim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"sicost/internal/core"
	"sicost/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files from the current run")

// fuwScript is a non-blocking First-Updater-Wins conflict: t2 writes and
// commits x before t1's write, so t1's update fails at version-check time
// without ever queueing on the row lock. No lock waits means the trace's
// event order is fully determined by the dispatch order.
const fuwScript = "b1 b2 w2(x,7) c2 w1(x,8) c1"

// recordTrace runs script deterministically and returns the schedule's
// validated counter-clock stream.
func recordTrace(t *testing.T, mode core.CCMode, script string) []trace.Event {
	t.Helper()
	res, err := Runner{Mode: mode, Platform: core.PlatformPostgres}.Run(script)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(res.Trace); err != nil {
		t.Fatalf("recorded trace invalid: %v", err)
	}
	return res.Trace
}

func TestReplayTraceRoundTrip(t *testing.T) {
	evs := recordTrace(t, core.SnapshotFUW, fuwScript)

	// Replaying the recording against a fresh engine must reproduce the
	// original outcome: t2 commits, t1 dies on the FUW check.
	r := Runner{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres}
	res, err := r.RunTrace(fuwScript, evs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed[2] || res.Committed[1] {
		t.Fatalf("committed = %v, want only t2", res.Committed)
	}
	if res.Errs[1] != core.ErrSerialization {
		t.Fatalf("t1 error = %v, want ErrSerialization", res.Errs[1])
	}
	if res.Final["x"] != 7 {
		t.Fatalf("final x = %d, want 7", res.Final["x"])
	}
	// The session discipline auto-aborts t1 after the failed write; its
	// EvAbort slot arrives before the scripted c1, which then finds the
	// transaction finished — exactly one skipped slot.
	if res.ReplaySkipped != 1 {
		t.Fatalf("replay skipped %d slots, want 1", res.ReplaySkipped)
	}
}

func TestReplayTraceBlockingSchedule(t *testing.T) {
	// Under FUW, w2(x) queues behind t1's X lock; c1 wakes it into a
	// serialization failure. The statement events are emitted at dispatch
	// time (before the wait), so the replay dispatches w2 at the same
	// schedule position and reproduces the block.
	const script = "b1 b2 w1(x,1) w2(x,2) c1 c2"
	evs := recordTrace(t, core.SnapshotFUW, script)

	r := Runner{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres}
	res, err := r.RunTrace(script, evs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed[1] || res.Committed[2] {
		t.Fatalf("committed = %v, want only t1", res.Committed)
	}
	if res.Errs[2] != core.ErrSerialization {
		t.Fatalf("t2 error = %v, want ErrSerialization", res.Errs[2])
	}
	var blocked bool
	for _, sr := range res.Steps {
		if sr.Blocked {
			blocked = true
		}
	}
	if !blocked {
		t.Fatal("replay never blocked; the recorded interleaving was not reproduced")
	}
	if res.Final["x"] != 1 {
		t.Fatalf("final x = %d, want 1", res.Final["x"])
	}
}

func TestReplayTraceForeignEventsIgnored(t *testing.T) {
	// Events from transactions beyond the script population (here: a
	// whole third transaction) must not generate dispatches.
	evs := recordTrace(t, core.SnapshotFUW, "b1 b2 b3 w3(y,1) c3 w2(x,7) c2 w1(x,8) c1")
	r := Runner{Mode: core.SnapshotFUW, Platform: core.PlatformPostgres}
	res, err := r.RunTrace(fuwScript, evs)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed[2] || res.Committed[1] {
		t.Fatalf("committed = %v, want only t2", res.Committed)
	}
}

// TestTraceGoldenJSONL pins the JSONL wire schema: a fixed deterministic
// schedule, recorded under a counter clock, must serialize byte-for-byte
// to the checked-in golden file. Regenerate with:
//
//	go test ./internal/detsim -run TestTraceGoldenJSONL -update
//
// A diff here means the event schema changed — update the golden file
// AND the schema reference in docs/OBSERVABILITY.md together.
func TestTraceGoldenJSONL(t *testing.T) {
	evs := recordTrace(t, core.SnapshotFUW, fuwScript)
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, evs); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "replay_trace.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("JSONL stream diverged from golden file.\ngot:\n%swant:\n%s", buf.Bytes(), want)
	}

	// The golden bytes must themselves parse and re-validate: this is the
	// compatibility contract for external trace consumers.
	parsed, err := trace.ParseJSONL(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(parsed); err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(evs) {
		t.Fatalf("parsed %d events, recorded %d", len(parsed), len(evs))
	}
}
