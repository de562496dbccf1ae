package wal

import (
	"sync"
	"testing"
	"time"

	"sicost/internal/core"
)

// The flush loop settles a window — stats, watermark, verdicts — and
// claims the next, or leaves, in one section under the log's mutex. These
// tests pin the orderings that section must keep. make stress runs them
// once more on one processor, where no committer polls for another.

// seqRecord returns a sync record whose CSN is allocated under seq, as
// the engine's sequencer does, and enqueues it in the same section.
func seqRecord(t *testing.T, w *WAL, seq *sync.Mutex, next *uint64, tx uint64) (*Record, <-chan error) {
	t.Helper()
	rec := &Record{TxID: tx, Rows: []RowImage{{Table: "t", Key: core.Int(int64(tx)), Rec: core.Record{core.Int(int64(tx))}}}}
	w.Encode(rec)
	seq.Lock()
	defer seq.Unlock()
	*next++
	rec.CSN = *next
	done, err := w.Enqueue(rec)
	if err != nil {
		t.Errorf("enqueue %d: %v", rec.CSN, err)
		return nil, nil
	}
	return rec, done
}

// TestOrderingWatermarkBeforeVerdict: the watermark moves before the
// verdict is sent, so when a sync commit returns — whoever flushed it,
// the committer, an heir or the committer ahead of it — DurableWatermark
// is at or above its CSN.
func TestOrderingWatermarkBeforeVerdict(t *testing.T) {
	const workers, each = 4, 300
	w := New(Config{Device: newTestLog(t)})
	defer w.Close()
	var (
		seq  sync.Mutex
		next uint64
		wg   sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec, done := seqRecord(t, w, &seq, &next, uint64(g*each+i+1))
				if rec == nil {
					return
				}
				w.Lead(rec, true)
				if err := <-done; err != nil {
					t.Errorf("record %d: %v", rec.CSN, err)
					return
				}
				if csn, _ := w.DurableWatermark(); csn < rec.CSN {
					t.Errorf("commit %d returned with the watermark at %d", rec.CSN, csn)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestOrderingVerdictsBeforeClose: when Close returns, every record it
// found — claimed by a window in flight, or still queued — already holds
// its verdict: a receive that does not block gets it. The device's sync
// takes a while, so Close mostly lands while a window is in flight.
func TestOrderingVerdictsBeforeClose(t *testing.T) {
	for round := 0; round < 20; round++ {
		w := New(Config{Device: &slowSyncDevice{SegmentLog: newTestLog(t), delay: 100 * time.Microsecond}})
		var (
			seq    sync.Mutex
			next   uint64
			mu     sync.Mutex
			queued []<-chan error
			wg     sync.WaitGroup
		)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					rec := &Record{TxID: uint64(g*1000 + i + 1)}
					w.Encode(rec)
					seq.Lock()
					next++
					rec.CSN = next
					done, err := w.Enqueue(rec)
					seq.Unlock()
					if err != nil {
						return // closed: the committers stop
					}
					mu.Lock()
					queued = append(queued, done)
					mu.Unlock()
					// Leads, waits to lead, or leaves the record to the
					// loop running; never receives the verdict.
					w.Lead(rec, i%2 == 0)
				}
			}(g)
		}
		time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
		w.Close()
		mu.Lock()
		found := append([]<-chan error(nil), queued...)
		mu.Unlock()
		for i, done := range found {
			select {
			case <-done:
			default:
				t.Fatalf("round %d: Close returned with record %d of %d holding no verdict", round, i+1, len(found))
			}
		}
		wg.Wait()
	}
}

// TestOrderingHeirOneVerdictEach: across an heir handoff — the heir
// taking the loop while the leader's window is in flight, and records
// queued behind both — every record gets exactly one verdict.
func TestOrderingHeirOneVerdictEach(t *testing.T) {
	dev := newGateDevice(t)
	w := New(Config{Device: dev})

	leader := &Record{TxID: 101, CSN: 1}
	leaderDone := enqueue(t, w, leader)
	<-dev.entered // the leader is inside its window's append
	dones := []<-chan error{leaderDone}
	heir := framed(w, &Record{TxID: 102, CSN: 2})
	heirDone, err := w.Enqueue(heir)
	if err != nil {
		t.Fatal(err)
	}
	dones = append(dones, heirDone)
	heirLed := make(chan struct{})
	go func() { w.Lead(heir, true); close(heirLed) }()
	for stop := time.Now().Add(5 * time.Second); ; time.Sleep(50 * time.Microsecond) {
		w.mu.Lock()
		ok := w.heir == heir
		w.mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(stop) {
			t.Fatal("the second committer never became the heir")
		}
	}
	for csn := uint64(3); csn <= 6; csn++ {
		rec := framed(w, &Record{TxID: csn + 100, CSN: csn, Async: csn == 5})
		done, err := w.Enqueue(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Async {
			w.Lead(rec, csn%2 == 0) // an heir is waiting: returns at once
		}
		dones = append(dones, done)
	}
	close(dev.release)
	for i, done := range dones {
		if err := <-done; err != nil {
			t.Errorf("record %d: %v", i+1, err)
		}
	}
	<-heirLed
	w.Drain()
	w.Close()
	for i, done := range dones {
		select {
		case err := <-done:
			t.Errorf("record %d: a second verdict %v", i+1, err)
		default:
		}
	}
	if s := w.Stats(); s.Records != int64(len(dones)) {
		t.Errorf("stats %+v; want %d records flushed once each", s, len(dones))
	}
}

// TestOrderingWithdrawRacesClaim: a committer under a deadline withdraws
// its record while a loop may be claiming it. Either the withdrawal wins
// and the record never gets a verdict, or the claim wins and it gets
// exactly one; the watermark ends at the last record not withdrawn.
func TestOrderingWithdrawRacesClaim(t *testing.T) {
	const workers, each = 3, 300
	w := New(Config{Device: newTestLog(t)})
	var (
		seq       sync.Mutex
		next      uint64
		wg        sync.WaitGroup
		withdrawn = map[uint64]<-chan error{}
		verdicts  = map[uint64]<-chan error{}
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rec, done := seqRecord(t, w, &seq, &next, uint64(g*each+i+1))
				if rec == nil {
					return
				}
				if g > 0 {
					// Bound by a deadline: leads only if nobody does.
					w.Lead(rec, false)
				}
				if g != 1 && w.Withdraw(rec) {
					seq.Lock()
					withdrawn[rec.CSN] = done
					seq.Unlock()
					continue
				}
				if g == 0 {
					w.Lead(rec, true)
				}
				if err := <-done; err != nil {
					t.Errorf("record %d: %v", rec.CSN, err)
					return
				}
				seq.Lock()
				verdicts[rec.CSN] = done
				seq.Unlock()
			}
		}(g)
	}
	wg.Wait()
	w.Drain()
	w.Close()
	for csn, done := range verdicts {
		select {
		case err := <-done:
			t.Errorf("record %d: a second verdict %v", csn, err)
		default:
		}
	}
	for csn, done := range withdrawn {
		select {
		case err := <-done:
			t.Errorf("withdrawn record %d: a verdict %v", csn, err)
		default:
		}
	}
	if got, want := len(verdicts)+len(withdrawn), workers*each; got != want {
		t.Errorf("%d records resolved and %d withdrawn, want %d in all", len(verdicts), len(withdrawn), want)
	}
	last := next
	for withdrawn[last] != nil {
		last--
	}
	if csn, outstanding := w.DurableWatermark(); csn != last || outstanding {
		t.Errorf("watermark %d (outstanding %v), want %d and none", csn, outstanding, last)
	}
	if s := w.Stats(); s.Records != int64(len(verdicts)) {
		t.Errorf("stats %+v; want %d records flushed", s, len(verdicts))
	}
	t.Logf("%d withdrawn, %d flushed in %d windows", len(withdrawn), len(verdicts), w.Stats().Flushes)
}
