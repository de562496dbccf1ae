package workload

import (
	"math/rand"
	"testing"
	"time"

	"sicost/internal/core"
)

func TestImmediatePolicy(t *testing.T) {
	p := ImmediatePolicy{MaxRetries: 2}
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 2; n++ {
		d, ok := p.Backoff(n, 0, rng)
		if !ok || d != 0 {
			t.Fatalf("failure %d: (%v, %v), want (0, true)", n, d, ok)
		}
	}
	if _, ok := p.Backoff(3, 0, rng); ok {
		t.Fatal("retried past MaxRetries")
	}
	if _, ok := (ImmediatePolicy{}).Backoff(1, 0, rng); ok {
		t.Fatal("zero policy retried")
	}
}

func TestBackoffPolicyGrowthAndCap(t *testing.T) {
	p := BackoffPolicy{MaxRetries: 10, Base: time.Millisecond, Cap: 4 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	want := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		4 * time.Millisecond, 4 * time.Millisecond,
	}
	for i, w := range want {
		d, ok := p.Backoff(i+1, 0, rng)
		if !ok {
			t.Fatalf("failure %d refused", i+1)
		}
		if d != w {
			t.Fatalf("failure %d: backoff %v, want %v", i+1, d, w)
		}
	}
	if _, ok := p.Backoff(11, 0, rng); ok {
		t.Fatal("retried past MaxRetries")
	}
}

func TestBackoffPolicyJitterRange(t *testing.T) {
	p := BackoffPolicy{MaxRetries: 1, Base: 10 * time.Millisecond, Jitter: 0.5}
	rng := rand.New(rand.NewSource(7))
	lo, hi := 5*time.Millisecond, 10*time.Millisecond
	seen := map[time.Duration]bool{}
	for i := 0; i < 100; i++ {
		d, ok := p.Backoff(1, 0, rng)
		if !ok {
			t.Fatal("refused")
		}
		if d < lo || d > hi {
			t.Fatalf("jittered backoff %v outside [%v, %v]", d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct values", len(seen))
	}
}

func TestBackoffPolicyBudget(t *testing.T) {
	p := BackoffPolicy{MaxRetries: 100, Base: 2 * time.Millisecond, Budget: 5 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	var spent time.Duration
	retries := 0
	for n := 1; ; n++ {
		d, ok := p.Backoff(n, spent, rng)
		if !ok {
			break
		}
		spent += d
		retries++
		if retries > 50 {
			t.Fatal("budget never exhausted")
		}
	}
	if spent > 5*time.Millisecond {
		t.Fatalf("spent %v past the %v budget", spent, 5*time.Millisecond)
	}
	// Without jitter the steps are 2ms then 4ms: the first fits the 5ms
	// budget, the second would exceed it and is refused.
	if retries != 1 {
		t.Fatalf("retries = %d, want 1", retries)
	}
}

func TestRetryStatsSurfaceInResult(t *testing.T) {
	db := loadedDB(t, core.Strict2PL, 50)
	res, err := Run(db, Config{
		Strategy:    nil, // defaults to SI strategy set
		MPL:         8,
		Customers:   50,
		HotspotSize: 5,
		HotspotProb: 1.0,
		Measure:     measure(400 * time.Millisecond),
		Seed:        1,
		Retry:       DefaultBackoff(50),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("no commits")
	}
	// A 5-customer hotspot under 2PL at MPL 8 must produce deadlock
	// aborts and therefore retries with nonzero backoff time.
	if res.Aborts > 0 && res.Retries == 0 && res.GiveUps == 0 {
		t.Fatalf("aborts=%d but no retries and no give-ups recorded", res.Aborts)
	}
	if res.Retries > 0 && res.BackoffTime == 0 {
		t.Fatal("retries recorded but no backoff time under a backoff policy")
	}
	var perTypeRetries int64
	for i := range res.PerType {
		perTypeRetries += res.PerType[i].Retries
	}
	if perTypeRetries != res.Retries {
		t.Fatalf("per-type retries %d != total %d", perTypeRetries, res.Retries)
	}
}

func TestRetryBudgetTokenBucket(t *testing.T) {
	// No refill: exactly burst tokens, then denials.
	b := NewRetryBudget(0, 3)
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("token %d refused with a full bucket", i)
		}
	}
	if b.Allow() {
		t.Fatal("empty bucket granted a token")
	}
	if b.Allow() {
		t.Fatal("empty zero-rate bucket refilled")
	}
	if b.Denied() != 2 {
		t.Fatalf("denied = %d, want 2", b.Denied())
	}
}

func TestRetryBudgetRefills(t *testing.T) {
	b := NewRetryBudget(1000, 1) // 1 token/ms
	if !b.Allow() {
		t.Fatal("initial token refused")
	}
	if b.Allow() {
		t.Fatal("bucket granted past burst")
	}
	time.Sleep(5 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("bucket did not refill")
	}
}

func TestBudgetedPolicyChargesOnlyRealRetries(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewRetryBudget(0, 2)
	p := BudgetedPolicy{Inner: ImmediatePolicy{MaxRetries: 1}, Budget: b}

	// n=2 > MaxRetries: the inner policy refuses, so the budget must
	// not be consulted (no token spent, no denial counted).
	if _, ok := p.Backoff(2, 0, rng); ok {
		t.Fatal("inner refusal overridden")
	}
	if b.Denied() != 0 {
		t.Fatalf("denied = %d after inner refusal", b.Denied())
	}
	// Two inner-approved retries drain the bucket; the third becomes a
	// give-up charged as a denial.
	for i := 0; i < 2; i++ {
		if _, ok := p.Backoff(1, 0, rng); !ok {
			t.Fatalf("budgeted retry %d refused with tokens left", i)
		}
	}
	if _, ok := p.Backoff(1, 0, rng); ok {
		t.Fatal("retry granted on an empty budget")
	}
	if b.Denied() != 1 {
		t.Fatalf("denied = %d, want 1", b.Denied())
	}
}

func TestRunSurfacesBudgetGiveUps(t *testing.T) {
	// Hot single-row contention under 2PL with lock timeouts generates
	// retriable aborts; a zero-refill budget of 1 means nearly every
	// retry is denied and the run must surface those give-ups.
	db := loadedDB(t, core.Strict2PL, 20)
	budget := NewRetryBudget(0, 1)
	res, err := Run(db, Config{
		MPL:         8,
		Customers:   20,
		HotspotSize: 2,
		HotspotProb: 1.0,
		Measure:     measure(150 * time.Millisecond),
		Seed:        4,
		Retry:       BudgetedPolicy{Inner: ImmediatePolicy{MaxRetries: 10}, Budget: budget},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetGiveUps != budget.Denied() {
		t.Fatalf("BudgetGiveUps = %d, budget denied %d", res.BudgetGiveUps, budget.Denied())
	}
}
