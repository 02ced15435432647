// Package repair is the grid's background maintenance engine: a
// rate-limited, breaker-aware worker pool embedded in srbd that drains
// the MCAT's persistent repair queue and runs named periodic jobs
// (anti-entropy scrubbing, queue sweeps) on jittered schedules.
//
// The paper's SRB replicates synchronously and trusts replicas to stay
// consistent; this engine moves replica fan-out and consistency off the
// write path. An async write lands k replicas synchronously and leaves
// the rest as journaled repair tasks; the scrubber re-hashes stored
// bytes against the catalog checksum and feeds divergence back into the
// same queue. Every task and job run is measured (obs ops, counters,
// gauges) and traced (spans with repair/breaker events), and the engine
// can be paused, resumed and inspected over the admin endpoint and the
// wire protocol.
package repair

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/types"
)

// Queue is the persistent task store the engine drains — implemented
// by *mcat.Catalog, whose journal makes the queue survive restarts.
type Queue interface {
	PendingRepairs() []types.RepairTask
	CompleteRepair(key string) bool
	NoteRepairAttempt(key string) int
	RepairBacklog() (int, time.Time)
}

// Config assembles an Engine.
type Config struct {
	// Workers is the number of task-executing goroutines (default 2).
	// Zero is legal but leaves the queue undrained (the engine reports
	// itself wedged once tasks accumulate).
	Workers int
	// Queue is the persistent task store (required).
	Queue Queue
	// Exec runs one task; a nil error completes it, any other error
	// reschedules it under the backoff policy. The span is the task's
	// trace context (required).
	Exec func(t types.RepairTask, sp *obs.Span) error
	// Metrics receives counters, gauges, per-job ops and task spans
	// (nil disables, as everywhere in obs).
	Metrics *obs.Registry
	// Breakers, when set, makes the engine skip tasks whose target
	// resource has an open breaker and feed task outcomes back into it.
	Breakers *resilience.Set
	// Backoff caps the delay between attempts of one task (MaxAttempts
	// is ignored: repair retries until the grid converges).
	Backoff resilience.Policy
	// Poll is how often the dispatcher re-reads the queue when idle
	// (default 250ms); Kick wakes it early.
	Poll time.Duration
	// Server names this daemon in task/job span records.
	Server string
	// Seed pins the schedule-jitter and backoff-jitter PRNG for
	// deterministic tests (0 = seeded from the clock).
	Seed int64
	// Now overrides the time source (tests).
	Now func() time.Time
}

// job is one named periodic maintenance routine.
type job struct {
	name     string
	interval time.Duration
	jitter   float64
	fn       func(sp *obs.Span) error
	op       *obs.Op

	mu      sync.Mutex
	runs    int64
	errs    int64
	lastRun time.Time
	lastErr string
}

// Engine is the background maintenance engine. Construct with New,
// register jobs with AddJob, then Start. All methods are safe for
// concurrent use.
type Engine struct {
	cfg    Config
	taskOp *obs.Op
	done   *obs.Counter
	failed *obs.Counter
	retry  *obs.Counter

	mu       sync.Mutex
	jobs     []*job
	nextTry  map[string]time.Time
	attempts map[string]int
	inflight map[string]bool
	rng      *rand.Rand
	paused   bool
	started  bool

	alive    atomic.Int64
	stopCh   chan struct{}
	kick     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds an engine from cfg (does not start it).
func New(cfg Config) *Engine {
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 250 * time.Millisecond
	}
	if cfg.Backoff.MaxAttempts == 0 && cfg.Backoff.BaseDelay == 0 {
		cfg.Backoff = resilience.Policy{BaseDelay: 50 * time.Millisecond, MaxDelay: 5 * time.Second, Jitter: 0.5}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = cfg.Now().UnixNano()
	}
	return &Engine{
		cfg:      cfg,
		taskOp:   cfg.Metrics.Op("repair.task"),
		done:     cfg.Metrics.Counter("repair.tasks.done"),
		failed:   cfg.Metrics.Counter("repair.tasks.failed"),
		retry:    cfg.Metrics.Counter("repair.retries"),
		nextTry:  make(map[string]time.Time),
		attempts: make(map[string]int),
		inflight: make(map[string]bool),
		rng:      rand.New(rand.NewSource(seed)),
		stopCh:   make(chan struct{}),
		kick:     make(chan struct{}, 1),
	}
}

// AddJob registers a named periodic job run every interval, each wait
// shortened by up to jitter (a 0..1 fraction) so repeated srbd
// instances do not scrub in lockstep. Must be called before Start.
func (e *Engine) AddJob(name string, interval time.Duration, jitter float64, fn func(sp *obs.Span) error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobs = append(e.jobs, &job{
		name:     name,
		interval: interval,
		jitter:   jitter,
		fn:       fn,
		op:       e.cfg.Metrics.Op("repair.job." + name),
	})
}

// Start launches the dispatcher, the worker pool and one scheduler per
// registered job.
func (e *Engine) Start() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	jobs := append([]*job(nil), e.jobs...)
	e.mu.Unlock()

	workCh := make(chan types.RepairTask)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.dispatch(workCh)
	}()
	for i := 0; i < e.cfg.Workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.worker(workCh)
		}()
	}
	for _, j := range jobs {
		e.wg.Add(1)
		go func(j *job) {
			defer e.wg.Done()
			e.schedule(j)
		}(j)
	}
}

// Stop halts the engine and waits for in-flight tasks and jobs.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stopCh) })
	e.wg.Wait()
}

// Pause suspends task dispatch and job runs (in-flight work finishes).
func (e *Engine) Pause() { e.setPaused(true) }

// Resume lifts a Pause and wakes the dispatcher.
func (e *Engine) Resume() {
	e.setPaused(false)
	e.Kick()
}

func (e *Engine) setPaused(p bool) {
	e.mu.Lock()
	e.paused = p
	e.mu.Unlock()
	v := int64(0)
	if p {
		v = 1
	}
	e.cfg.Metrics.Gauge("repair.paused").Set(v)
}

// Paused reports whether the engine is paused.
func (e *Engine) Paused() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.paused
}

// Kick wakes the dispatcher immediately — called after an enqueue so
// async fan-out does not wait out a poll interval.
func (e *Engine) Kick() {
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

// dispatch feeds eligible queue tasks to the workers: not in flight,
// past their backoff time, and with a closed (or probing) breaker on
// the target resource.
func (e *Engine) dispatch(workCh chan types.RepairTask) {
	defer close(workCh)
	for {
		if !e.Paused() {
			now := e.cfg.Now()
			for _, t := range e.cfg.Queue.PendingRepairs() {
				e.mu.Lock()
				busy := e.inflight[t.Key]
				notBefore := e.nextTry[t.Key]
				e.mu.Unlock()
				if busy || now.Before(notBefore) {
					continue
				}
				if e.cfg.Breakers != nil && !e.cfg.Breakers.For("resource", t.Resource).Allow() {
					continue
				}
				e.mu.Lock()
				e.inflight[t.Key] = true
				e.mu.Unlock()
				select {
				case workCh <- t:
				case <-e.stopCh:
					return
				}
			}
		}
		e.publishBacklog()
		select {
		case <-e.stopCh:
			return
		case <-e.kick:
		case <-time.After(e.cfg.Poll):
		}
	}
}

// worker executes tasks.
func (e *Engine) worker(workCh chan types.RepairTask) {
	e.alive.Add(1)
	defer e.alive.Add(-1)
	for t := range workCh {
		e.runTask(t)
	}
}

// runTask executes one task under a span; success completes it,
// failure reschedules it with capped jittered backoff and feeds the
// target resource's breaker.
func (e *Engine) runTask(t types.RepairTask) {
	start := time.Now()
	sp := obs.StartSpan(0, "repair.task")
	var br *resilience.Breaker
	if e.cfg.Breakers != nil {
		br = e.cfg.Breakers.For("resource", t.Resource)
	}
	err := e.cfg.Exec(t, sp)
	if err == nil {
		e.cfg.Queue.CompleteRepair(t.Key)
		e.done.Inc()
		sp.Event(obs.EventRepair, t.Key+" ok")
		br.Success()
	} else {
		attempts := e.cfg.Queue.NoteRepairAttempt(t.Key)
		e.failed.Inc()
		e.retry.Inc()
		sp.Event(obs.EventRepair, t.Key+" err="+err.Error())
		if resilience.Retryable(err) && br.Failure() {
			sp.Event(obs.EventBreakerTrip, "resource."+t.Resource)
		}
		d := e.cfg.Backoff.Backoff(attempts - 1)
		e.mu.Lock()
		if e.cfg.Backoff.Jitter > 0 && d > 0 {
			d = d - time.Duration(e.cfg.Backoff.Jitter*e.rng.Float64()*float64(d))
		}
		e.attempts[t.Key] = attempts
		e.nextTry[t.Key] = e.cfg.Now().Add(d)
		e.mu.Unlock()
	}
	if err == nil {
		e.mu.Lock()
		delete(e.attempts, t.Key)
		delete(e.nextTry, t.Key)
		e.mu.Unlock()
	}
	e.mu.Lock()
	delete(e.inflight, t.Key)
	e.mu.Unlock()
	e.taskOp.Done(start, err)
	sp.End(e.cfg.Metrics.Traces(), e.cfg.Server, "", err)
}

// schedule runs one job on its jittered period until the engine stops.
func (e *Engine) schedule(j *job) {
	for {
		d := j.interval
		if j.jitter > 0 && d > 0 {
			e.mu.Lock()
			f := e.rng.Float64()
			e.mu.Unlock()
			d = d - time.Duration(j.jitter*f*float64(d))
		}
		select {
		case <-e.stopCh:
			return
		case <-time.After(d):
		}
		if e.Paused() {
			continue
		}
		e.runJob(j)
	}
}

// runJob executes one job iteration under a span and its obs op.
func (e *Engine) runJob(j *job) error {
	start := time.Now()
	sp := obs.StartSpan(0, "repair.job."+j.name)
	err := j.fn(sp)
	j.op.Done(start, err)
	sp.End(e.cfg.Metrics.Traces(), e.cfg.Server, "", err)
	j.mu.Lock()
	j.runs++
	j.lastRun = time.Now()
	if err != nil {
		j.errs++
		j.lastErr = err.Error()
	} else {
		j.lastErr = ""
	}
	j.mu.Unlock()
	return err
}

// RunJob triggers the named job synchronously, regardless of its
// schedule or the pause flag — the manual lever tests and operators
// use. Returns the job's error (types.ErrNotFound for an unknown name).
func (e *Engine) RunJob(name string) error {
	e.mu.Lock()
	var found *job
	for _, j := range e.jobs {
		if j.name == name {
			found = j
			break
		}
	}
	e.mu.Unlock()
	if found == nil {
		return types.E("repairjob", name, types.ErrNotFound)
	}
	return e.runJob(found)
}

// publishBacklog refreshes the queue gauges.
func (e *Engine) publishBacklog() {
	n, oldest := e.cfg.Queue.RepairBacklog()
	e.cfg.Metrics.Gauge("repair.backlog").Set(int64(n))
	var age int64
	if n > 0 && !oldest.IsZero() {
		age = int64(e.cfg.Now().Sub(oldest).Seconds())
	}
	e.cfg.Metrics.Gauge("repair.oldest_age_seconds").Set(age)
}

// JobStatus is the externally visible state of one periodic job.
type JobStatus struct {
	Name     string
	Interval time.Duration
	Runs     int64
	Errors   int64
	LastRun  time.Time `json:",omitempty"`
	LastErr  string    `json:",omitempty"`
}

// Status is a point-in-time view of the engine for the admin /repair
// endpoint, the repairstatus wire op and the MySRB status page.
type Status struct {
	Running      bool
	Paused       bool
	Wedged       bool
	Workers      int
	WorkersAlive int
	Backlog      int
	OldestAge    time.Duration
	Done         int64
	Failed       int64
	Retries      int64
	Jobs         []JobStatus `json:",omitempty"`
}

// Wedged reports the stuck state readiness turns into a 503: tasks are
// pending but no worker is alive to drain them (and the engine is not
// merely paused by an operator).
func (e *Engine) Wedged() bool {
	e.mu.Lock()
	started, paused := e.started, e.paused
	e.mu.Unlock()
	if !started || paused {
		return false
	}
	if e.alive.Load() > 0 {
		return false
	}
	n, _ := e.cfg.Queue.RepairBacklog()
	return n > 0
}

// Status snapshots the engine.
func (e *Engine) Status() Status {
	n, oldest := e.cfg.Queue.RepairBacklog()
	var age time.Duration
	if n > 0 && !oldest.IsZero() {
		age = e.cfg.Now().Sub(oldest)
	}
	e.mu.Lock()
	st := Status{
		Running:      e.started,
		Paused:       e.paused,
		Workers:      e.cfg.Workers,
		WorkersAlive: int(e.alive.Load()),
		Backlog:      n,
		OldestAge:    age,
		Done:         e.done.Value(),
		Failed:       e.failed.Value(),
		Retries:      e.retry.Value(),
	}
	for _, j := range e.jobs {
		j.mu.Lock()
		st.Jobs = append(st.Jobs, JobStatus{
			Name:     j.name,
			Interval: j.interval,
			Runs:     j.runs,
			Errors:   j.errs,
			LastRun:  j.lastRun,
			LastErr:  j.lastErr,
		})
		j.mu.Unlock()
	}
	e.mu.Unlock()
	st.Wedged = st.Running && !st.Paused && st.WorkersAlive == 0 && st.Backlog > 0
	e.publishBacklog()
	return st
}
