package repair

import (
	"errors"
	"sync"
	"testing"
	"time"

	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/types"
)

// fakeQueue is an in-memory Queue with the same dedup/attempt semantics
// as the catalog, giving tests full control without a journal.
type fakeQueue struct {
	mu    sync.Mutex
	tasks map[string]*types.RepairTask
}

func newFakeQueue() *fakeQueue {
	return &fakeQueue{tasks: make(map[string]*types.RepairTask)}
}

func (q *fakeQueue) add(path, resource string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	t := &types.RepairTask{
		Key:      types.RepairKey(path, resource),
		Path:     path,
		Resource: resource,
		Kind:     "replicate",
		Enqueued: time.Now(),
	}
	q.tasks[t.Key] = t
}

func (q *fakeQueue) PendingRepairs() []types.RepairTask {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]types.RepairTask, 0, len(q.tasks))
	for _, t := range q.tasks {
		out = append(out, *t)
	}
	return out
}

func (q *fakeQueue) CompleteRepair(key string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.tasks[key]; !ok {
		return false
	}
	delete(q.tasks, key)
	return true
}

func (q *fakeQueue) NoteRepairAttempt(key string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	t, ok := q.tasks[key]
	if !ok {
		return 0
	}
	t.Attempts++
	return t.Attempts
}

func (q *fakeQueue) RepairBacklog() (int, time.Time) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var oldest time.Time
	for _, t := range q.tasks {
		if oldest.IsZero() || t.Enqueued.Before(oldest) {
			oldest = t.Enqueued
		}
	}
	return len(q.tasks), oldest
}

func (q *fakeQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestEngineDrainsQueue(t *testing.T) {
	q := newFakeQueue()
	q.add("/zone/a", "r1")
	q.add("/zone/b", "r1")
	q.add("/zone/c", "r2")

	var mu sync.Mutex
	ran := map[string]int{}
	reg := obs.NewRegistry()
	e := New(Config{
		Workers: 2,
		Queue:   q,
		Metrics: reg,
		Poll:    10 * time.Millisecond,
		Seed:    1,
		Exec: func(task types.RepairTask, sp *obs.Span) error {
			mu.Lock()
			ran[task.Key]++
			mu.Unlock()
			return nil
		},
	})
	e.Start()
	defer e.Stop()

	waitFor(t, 3*time.Second, func() bool { return q.depth() == 0 }, "queue drain")
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 3 {
		t.Fatalf("ran %d distinct tasks, want 3: %v", len(ran), ran)
	}
	for k, n := range ran {
		if n != 1 {
			t.Errorf("task %s ran %d times, want 1 (dedup/inflight failed)", k, n)
		}
	}
	if got := reg.Counter("repair.tasks.done").Value(); got != 3 {
		t.Errorf("repair.tasks.done = %d, want 3", got)
	}
}

func TestEngineRetriesWithBackoff(t *testing.T) {
	q := newFakeQueue()
	q.add("/zone/flaky", "r1")

	var mu sync.Mutex
	calls := 0
	reg := obs.NewRegistry()
	e := New(Config{
		Workers: 1,
		Queue:   q,
		Metrics: reg,
		Poll:    5 * time.Millisecond,
		Backoff: resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Seed:    1,
		Exec: func(task types.RepairTask, sp *obs.Span) error {
			mu.Lock()
			defer mu.Unlock()
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		},
	})
	e.Start()
	defer e.Stop()

	waitFor(t, 3*time.Second, func() bool { return q.depth() == 0 }, "retry convergence")
	mu.Lock()
	defer mu.Unlock()
	if calls != 3 {
		t.Fatalf("exec ran %d times, want 3", calls)
	}
	if got := reg.Counter("repair.retries").Value(); got != 2 {
		t.Errorf("repair.retries = %d, want 2", got)
	}
	if got := reg.Counter("repair.tasks.done").Value(); got != 1 {
		t.Errorf("repair.tasks.done = %d, want 1", got)
	}
}

func TestEnginePauseResume(t *testing.T) {
	q := newFakeQueue()
	var mu sync.Mutex
	ran := 0
	e := New(Config{
		Workers: 1,
		Queue:   q,
		Poll:    5 * time.Millisecond,
		Seed:    1,
		Exec: func(task types.RepairTask, sp *obs.Span) error {
			mu.Lock()
			ran++
			mu.Unlock()
			return nil
		},
	})
	e.Start()
	defer e.Stop()

	e.Pause()
	if !e.Paused() {
		t.Fatal("Paused() = false after Pause")
	}
	q.add("/zone/x", "r1")
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	if ran != 0 {
		mu.Unlock()
		t.Fatalf("task executed while paused (%d runs)", ran)
	}
	mu.Unlock()
	if q.depth() != 1 {
		t.Fatal("queue drained while paused")
	}

	e.Resume()
	waitFor(t, 3*time.Second, func() bool { return q.depth() == 0 }, "drain after resume")
}

func TestEngineWedged(t *testing.T) {
	q := newFakeQueue()
	e := New(Config{
		Workers: 0, // no one to drain the queue
		Queue:   q,
		Poll:    5 * time.Millisecond,
		Seed:    1,
		Exec:    func(task types.RepairTask, sp *obs.Span) error { return nil },
	})
	if e.Wedged() {
		t.Fatal("wedged before Start")
	}
	e.Start()
	defer e.Stop()

	if e.Wedged() {
		t.Fatal("wedged with empty queue")
	}
	q.add("/zone/stuck", "r1")
	if !e.Wedged() {
		t.Fatal("not wedged: backlog > 0 and zero workers alive")
	}
	st := e.Status()
	if !st.Wedged || st.Backlog != 1 || st.WorkersAlive != 0 {
		t.Fatalf("status = %+v, want wedged with backlog 1", st)
	}

	// An operator pause is intentional, not wedged.
	e.Pause()
	if e.Wedged() {
		t.Fatal("paused engine reported wedged")
	}
}

func TestEngineSkipsOpenBreaker(t *testing.T) {
	reg := obs.NewRegistry()
	set := resilience.NewSet(resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour}, reg)
	set.For("resource", "down").Failure() // trip it open

	q := newFakeQueue()
	q.add("/zone/blocked", "down")
	q.add("/zone/free", "up")

	var mu sync.Mutex
	ran := map[string]bool{}
	e := New(Config{
		Workers:  1,
		Queue:    q,
		Metrics:  reg,
		Breakers: set,
		Poll:     5 * time.Millisecond,
		Seed:     1,
		Exec: func(task types.RepairTask, sp *obs.Span) error {
			mu.Lock()
			ran[task.Resource] = true
			mu.Unlock()
			return nil
		},
	})
	e.Start()
	defer e.Stop()

	waitFor(t, 3*time.Second, func() bool { return q.depth() == 1 }, "healthy-resource task drain")
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if !ran["up"] {
		t.Fatal("task on healthy resource never ran")
	}
	if ran["down"] {
		t.Fatal("task ran against a resource with an open breaker")
	}
}

func TestEngineJobs(t *testing.T) {
	q := newFakeQueue()
	var mu sync.Mutex
	runs := 0
	e := New(Config{
		Workers: 1,
		Queue:   q,
		Poll:    50 * time.Millisecond,
		Seed:    1,
		Exec:    func(task types.RepairTask, sp *obs.Span) error { return nil },
	})
	e.AddJob("tick", 10*time.Millisecond, 0.2, func(sp *obs.Span) error {
		mu.Lock()
		runs++
		mu.Unlock()
		return nil
	})
	e.Start()
	defer e.Stop()

	waitFor(t, 3*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return runs >= 2
	}, "scheduled job runs")

	// Manual trigger works and is reflected in status.
	if err := e.RunJob("tick"); err != nil {
		t.Fatalf("RunJob: %v", err)
	}
	if err := e.RunJob("nope"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("RunJob(unknown) = %v, want ErrNotFound", err)
	}
	st := e.Status()
	if len(st.Jobs) != 1 || st.Jobs[0].Name != "tick" || st.Jobs[0].Runs < 3 {
		t.Fatalf("job status = %+v, want tick with >=3 runs", st.Jobs)
	}
}

func TestEngineStopIdempotent(t *testing.T) {
	q := newFakeQueue()
	e := New(Config{
		Workers: 2,
		Queue:   q,
		Poll:    5 * time.Millisecond,
		Seed:    1,
		Exec:    func(task types.RepairTask, sp *obs.Span) error { return nil },
	})
	e.Start()
	e.Start() // second Start is a no-op
	e.Stop()
	e.Stop() // second Stop is a no-op
	if st := e.Status(); st.WorkersAlive != 0 {
		t.Fatalf("workers alive after Stop: %d", st.WorkersAlive)
	}
}
