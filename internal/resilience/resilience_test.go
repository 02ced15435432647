package resilience

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gosrb/internal/obs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

func TestBackoffCappedDoubling(t *testing.T) {
	p := Policy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 50, 50}
	for i, w := range want {
		if got := p.Backoff(i); got != w*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := (Policy{}).Backoff(3); got != 0 {
		t.Errorf("zero policy backoff = %v", got)
	}
}

// TestRetryPolicyTable is the grid's retry contract in one table:
// idempotent ops retry retryable errors under capped backoff; mutating
// ops and deterministic errors never retry.
func TestRetryPolicyTable(t *testing.T) {
	retryableErr := types.E("get", "/x", types.ErrOffline)
	cases := []struct {
		name         string
		op           string
		err          error // error every attempt returns (nil = success)
		wantAttempts int
	}{
		{"read retried to exhaustion", wire.OpGet, retryableErr, 3},
		{"list retried", wire.OpList, retryableErr, 3},
		{"query retried", wire.OpQuery, retryableErr, 3},
		{"stat retried on timeout", wire.OpStat, types.E("stat", "/x", types.ErrTimeout), 3},
		{"readrange retried on conn reset", wire.OpReadRange, &net.OpError{Op: "read", Err: errors.New("reset")}, 3},
		{"ingest never retried", wire.OpIngest, retryableErr, 1},
		{"reingest never retried", wire.OpReingest, retryableErr, 1},
		{"delete never retried", wire.OpDelete, retryableErr, 1},
		{"move never retried", wire.OpMove, retryableErr, 1},
		{"lock never retried", wire.OpLock, retryableErr, 1},
		{"checkin never retried", wire.OpCheckin, retryableErr, 1},
		{"notfound not retried", wire.OpGet, types.E("get", "/x", types.ErrNotFound), 1},
		{"permission not retried", wire.OpGet, types.E("get", "/x", types.ErrPermission), 1},
		{"invalid not retried", wire.OpQuery, types.E("query", "", types.ErrInvalid), 1},
		{"success stops immediately", wire.OpGet, nil, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			policy := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Jitter: 0.5}
			if !wire.Idempotent(tc.op) {
				policy.MaxAttempts = 1 // callers collapse mutating ops to one attempt
			}
			var slept []time.Duration
			attempts := 0
			r := Retrier{
				Policy: policy,
				Sleep:  func(d time.Duration) { slept = append(slept, d) },
				Rand:   func() float64 { return 0 }, // jitter pinned for determinism
			}
			err := r.Do(func() error { attempts++; return tc.err })
			if attempts != tc.wantAttempts {
				t.Errorf("attempts = %d, want %d", attempts, tc.wantAttempts)
			}
			if !errors.Is(err, tc.err) && !(err == nil && tc.err == nil) {
				t.Errorf("err = %v, want %v", err, tc.err)
			}
			// Backoff between attempts is capped doubling.
			if tc.wantAttempts == 3 {
				if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
					t.Errorf("backoff sequence = %v", slept)
				}
			}
		})
	}
}

func TestRetrierJitterShrinksDelay(t *testing.T) {
	var slept []time.Duration
	r := Retrier{
		Policy: Policy{MaxAttempts: 2, BaseDelay: 100 * time.Millisecond, Jitter: 0.5},
		Sleep:  func(d time.Duration) { slept = append(slept, d) },
		Rand:   func() float64 { return 1 },
	}
	r.Do(func() error { return types.ErrOffline })
	if len(slept) != 1 || slept[0] != 50*time.Millisecond {
		t.Errorf("full-jitter delay = %v, want 50ms", slept)
	}
}

func TestRetrierDeadlineStopsLoop(t *testing.T) {
	attempts := 0
	r := Retrier{
		Policy:   Policy{MaxAttempts: 10, BaseDelay: 50 * time.Millisecond},
		Deadline: time.Now().Add(10 * time.Millisecond),
		Sleep:    func(time.Duration) {},
	}
	// The deadline is ahead of every backoff, so only the first attempt
	// (plus at most one raced retry) runs.
	err := r.Do(func() error { attempts++; return types.ErrOffline })
	if attempts > 2 {
		t.Errorf("attempts = %d, deadline should have stopped the loop", attempts)
	}
	if !errors.Is(err, types.ErrOffline) {
		t.Errorf("err = %v", err)
	}
}

func TestRetrierOnRetryHook(t *testing.T) {
	var seen []int
	r := Retrier{
		Policy:  Policy{MaxAttempts: 3, BaseDelay: time.Microsecond},
		Sleep:   func(time.Duration) {},
		OnRetry: func(attempt int, err error) { seen = append(seen, attempt) },
	}
	r.Do(func() error { return types.ErrOffline })
	if len(seen) != 2 || seen[0] != 0 || seen[1] != 1 {
		t.Errorf("OnRetry attempts = %v", seen)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err       error
		retryable bool
		transport bool
	}{
		{nil, false, false},
		{types.E("get", "/x", types.ErrOffline), true, false},
		{types.E("get", "/x", types.ErrTimeout), true, false},
		{types.E("get", "/x", types.ErrNotFound), false, false},
		{types.E("get", "/x", types.ErrPermission), false, false},
		{io.EOF, true, true},
		{io.ErrUnexpectedEOF, true, true},
		{net.ErrClosed, true, true},
		{fmt.Errorf("wrapped: %w", io.EOF), true, true},
		{&net.OpError{Op: "dial", Err: errors.New("refused")}, true, true},
		{errors.New("opaque"), false, false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.retryable {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.retryable)
		}
		if got := Transport(tc.err); got != tc.transport {
			t.Errorf("Transport(%v) = %v, want %v", tc.err, got, tc.transport)
		}
	}
}

// fakeClock is a settable time source for breaker cooldowns.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestSet(threshold int, cooldown time.Duration) (*Set, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s := NewSet(BreakerConfig{Threshold: threshold, Cooldown: cooldown}, nil)
	s.SetClock(clk.now)
	return s, clk
}

// TestBreakerStateMachine walks the full closed → open → half-open
// cycle, covering both probe outcomes.
func TestBreakerStateMachine(t *testing.T) {
	s, clk := newTestSet(3, time.Second)
	b := s.For("peer", "srb2")

	if st := b.State(); st != Closed {
		t.Fatalf("initial state = %v", st)
	}
	// Failures below threshold keep it closed; a success resets the run.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if st := b.State(); st != Closed {
		t.Fatalf("after interrupted run state = %v", st)
	}
	// Third consecutive failure trips it.
	b.Failure()
	if st := b.State(); st != Open {
		t.Fatalf("after threshold state = %v", st)
	}
	if b.Allow() {
		t.Error("open breaker must not allow")
	}
	// Cooldown elapses: half-open, probe allowed.
	clk.advance(time.Second)
	if st := b.State(); st != HalfOpen {
		t.Fatalf("after cooldown state = %v", st)
	}
	if !b.Allow() {
		t.Error("half-open breaker must allow a probe")
	}
	// Probe failure re-opens for a full cooldown.
	b.Failure()
	if st := b.State(); st != Open {
		t.Fatalf("after failed probe state = %v", st)
	}
	clk.advance(999 * time.Millisecond)
	if st := b.State(); st != Open {
		t.Fatalf("cooldown must restart after failed probe, state = %v", st)
	}
	clk.advance(time.Millisecond)
	if st := b.State(); st != HalfOpen {
		t.Fatalf("second cooldown state = %v", st)
	}
	// Probe success closes and resets the failure run.
	b.Success()
	if st := b.State(); st != Closed {
		t.Fatalf("after probe success state = %v", st)
	}
	b.Failure()
	b.Failure()
	if st := b.State(); st != Closed {
		t.Fatalf("failure run must restart from zero, state = %v", st)
	}
}

func TestBreakerSetSharedConfigAndStates(t *testing.T) {
	s, clk := newTestSet(2, time.Minute)
	a, b := s.For("resource", "r1"), s.For("resource", "r2")
	if a != s.For("resource", "r1") {
		t.Fatal("For must return the same breaker per key")
	}
	if n := testing.AllocsPerRun(100, func() { s.For("resource", "r1") }); n != 0 {
		t.Errorf("looking up an existing breaker allocates %.1f objects, want 0", n)
	}
	a.Failure()
	a.Failure()
	if st := s.States(); st["resource.r1"] != Open || st["resource.r2"] != Closed {
		t.Errorf("states = %v", st)
	}
	// Config change applies to live breakers: shrink cooldown and the
	// open breaker becomes half-open immediately.
	s.SetConfig(BreakerConfig{Threshold: 2, Cooldown: time.Millisecond})
	clk.advance(time.Millisecond)
	if st := a.State(); st != HalfOpen {
		t.Errorf("after config shrink state = %v", st)
	}
	b.Failure()
	b.Failure()
	if st := b.State(); st == Closed {
		t.Error("threshold from shared config not applied")
	}
}

func TestBreakerMetricsExport(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSet(BreakerConfig{Threshold: 2, Cooldown: time.Minute}, reg)
	b := s.For("peer", "srb2")
	b.Failure()
	b.Failure()
	s.Publish()
	snap := reg.Snapshot()
	if got := snap.Gauges["breaker.peer.srb2.state"]; got != int64(Open) {
		t.Errorf("state gauge = %d, want %d", got, int64(Open))
	}
	if got := snap.Counters["breaker.peer.srb2.trips"]; got != 1 {
		t.Errorf("per-key trips = %d", got)
	}
	if got := snap.Counters["breaker.trips"]; got != 1 {
		t.Errorf("global trips = %d", got)
	}
}

func TestNilBreakerAndSetAreInert(t *testing.T) {
	var s *Set
	b := s.For("peer", "anything")
	if b != nil {
		t.Fatal("nil set must yield nil breaker")
	}
	if !b.Allow() {
		t.Error("nil breaker must allow")
	}
	b.Failure()
	b.Success()
	if st := b.State(); st != Closed {
		t.Errorf("nil breaker state = %v", st)
	}
	s.Publish()
	s.SetConfig(BreakerConfig{})
	if s.States() != nil {
		t.Error("nil set states should be nil")
	}
}
