package resilience

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/obs"
	"gosrb/internal/types"
)

// TestBreakerConcurrentTripsAndProbes hammers one Set from many
// goroutines — concurrent failures tripping breakers, successes closing
// them, probes racing the cooldown, config swaps and snapshot readers —
// so `go test -race ./internal/resilience` proves the state machine is
// data-race free under exactly the contention the federation produces.
func TestBreakerConcurrentTripsAndProbes(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSet(BreakerConfig{Threshold: 3, Cooldown: time.Microsecond}, reg)
	var clock atomic.Int64
	base := time.Unix(2000, 0)
	s.SetClock(func() time.Time { return base.Add(time.Duration(clock.Load())) })

	keys := [][2]string{{"peer", "srb1"}, {"peer", "srb2"}, {"resource", "disk1"}, {"resource", "disk2"}}
	const workers = 16
	const iters = 400
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := keys[(w+i)%len(keys)]
				b := s.For(k[0], k[1])
				switch i % 7 {
				case 0, 1, 2:
					b.Failure() // trip pressure
				case 3:
					b.Success() // close
				case 4:
					if b.Allow() { // probe gate racing the cooldown
						b.Failure()
					}
				case 5:
					_ = b.State()
					clock.Add(int64(time.Microsecond)) // advance past cooldowns
				case 6:
					if w == 0 {
						s.SetConfig(BreakerConfig{Threshold: 2 + i%3, Cooldown: time.Microsecond})
					}
					s.Publish()
					_ = s.States()
				}
			}
		}(w)
	}
	wg.Wait()
	// The set survived; every breaker lands in a coherent state.
	for k, st := range s.States() {
		if st != Closed && st != Open && st != HalfOpen {
			t.Errorf("%s in impossible state %d", k, st)
		}
	}
}

// TestRetrierConcurrent runs many retry loops sharing one policy and a
// contended counter hook under -race.
func TestRetrierConcurrent(t *testing.T) {
	var retries atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			calls := 0
			r := Retrier{
				Policy:  Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, Jitter: 0.5},
				Sleep:   func(time.Duration) {},
				OnRetry: func(int, error) { retries.Add(1) },
			}
			r.Do(func() error {
				calls++
				if calls < 3 {
					return types.ErrOffline
				}
				return nil
			})
			if calls != 3 {
				t.Errorf("worker %d: calls = %d", w, calls)
			}
		}(w)
	}
	wg.Wait()
	if retries.Load() != 8*2 {
		t.Errorf("retries = %d, want 16", retries.Load())
	}
}
