// Package faultnet is the grid's fault-injection layer, extending the
// simnet idea (shaped links, injectable sleeps) from latency to
// failure. It wraps storage drivers and net.Conns with scriptable
// faults — error-after-N-ops, partial writes, connection drops
// mid-frame, latency spikes, a per-target kill switch — all driven by
// one seeded RNG so every chaos test replays exactly.
//
// An Injector owns named Targets ("resource.disk1", "peer.srb2");
// faults are armed on the Target and apply to everything wrapped under
// that name, including connections already in flight — Kill making
// established conns die on their next I/O is what "peer crashed
// mid-proxy" looks like to the survivor.
package faultnet

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"

	"gosrb/internal/simnet"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// ErrInjected marks a manufactured fault (partial write, dropped conn)
// so tests can tell scripted failures from real ones.
var ErrInjected = errors.New("injected fault")

// Injector owns the fault script: named targets plus the shared seeded
// RNG and sleep hook.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	sleep   simnet.Clock
	targets map[string]*Target
}

// New returns an injector whose probabilistic faults (latency spikes)
// draw from a fixed-seed RNG: same seed, same script, same run.
func New(seed int64) *Injector {
	return &Injector{
		rng:     rand.New(rand.NewSource(seed)),
		sleep:   time.Sleep,
		targets: make(map[string]*Target),
	}
}

// SetSleep overrides how latency spikes wait (tests count simulated
// time instead of spending real time).
func (in *Injector) SetSleep(sleep simnet.Clock) {
	in.mu.Lock()
	in.sleep = sleep
	in.mu.Unlock()
}

// Target returns (creating if absent) the named fault target.
func (in *Injector) Target(name string) *Target {
	in.mu.Lock()
	defer in.mu.Unlock()
	t, ok := in.targets[name]
	if !ok {
		t = &Target{in: in, name: name, failOps: -1, writeBudget: -1, readBudget: -1, connBudget: -1}
		in.targets[name] = t
	}
	return t
}

// roll returns true with probability p, drawn from the seeded RNG.
func (in *Injector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	in.mu.Lock()
	v := in.rng.Float64()
	in.mu.Unlock()
	return v < p
}

func (in *Injector) wait(d time.Duration) {
	in.mu.Lock()
	sleep := in.sleep
	in.mu.Unlock()
	sleep(d)
}

// Target is one named fault point. Arm faults here; they apply to every
// driver and conn wrapped under this name, current and future.
type Target struct {
	in   *Injector
	name string

	mu          sync.Mutex
	killed      bool
	failOps     int64 // ops to allow before failErr; -1 = disabled
	failErr     error
	writeBudget int64 // driver bytes writable before partial-write error; -1 = disabled
	readBudget  int64 // driver bytes readable before partial-read error; -1 = disabled
	connBudget  int64 // conn bytes transferable before drop; -1 = disabled
	spike       time.Duration
	spikeProb   float64
	ops         int64

	// inner is the storage driver this target wraps (set by
	// WrapDriver), kept so CorruptAtRest can reach the stored bytes
	// without passing through the fault gates.
	inner storage.Driver
}

// Kill flips the kill switch: every operation — including I/O on
// already-open handles and established connections — fails until
// Revive.
func (t *Target) Kill() {
	t.mu.Lock()
	t.killed = true
	t.mu.Unlock()
}

// Revive clears the kill switch.
func (t *Target) Revive() {
	t.mu.Lock()
	t.killed = false
	t.mu.Unlock()
}

// FailAfterOps lets the next n driver operations succeed, then fails
// every one after that with err until Clear.
func (t *Target) FailAfterOps(n int64, err error) {
	t.mu.Lock()
	t.failOps, t.failErr = n, err
	t.mu.Unlock()
}

// PartialWriteAfter lets wrapped writers accept n more bytes in total,
// then truncates the crossing write and fails it with ErrInjected.
func (t *Target) PartialWriteAfter(n int64) {
	t.mu.Lock()
	t.writeBudget = n
	t.mu.Unlock()
}

// PartialReadAfter lets wrapped readers deliver n more bytes in total,
// then truncates the crossing read and fails it (and every later one)
// with ErrInjected — a driver dying at byte n of a streamed Get.
func (t *Target) PartialReadAfter(n int64) {
	t.mu.Lock()
	t.readBudget = n
	t.mu.Unlock()
}

// DropAfterBytes lets wrapped conns move n more bytes in total (both
// directions), then closes them mid-frame with a transport error.
func (t *Target) DropAfterBytes(n int64) {
	t.mu.Lock()
	t.connBudget = n
	t.mu.Unlock()
}

// SpikeLatency makes each operation stall for d with probability prob,
// decided by the injector's seeded RNG.
func (t *Target) SpikeLatency(d time.Duration, prob float64) {
	t.mu.Lock()
	t.spike, t.spikeProb = d, prob
	t.mu.Unlock()
}

// Clear disarms every fault on the target.
func (t *Target) Clear() {
	t.mu.Lock()
	t.killed = false
	t.failOps, t.failErr = -1, nil
	t.writeBudget = -1
	t.readBudget = -1
	t.connBudget = -1
	t.spike, t.spikeProb = 0, 0
	t.mu.Unlock()
}

// Ops returns how many driver operations the target has seen.
func (t *Target) Ops() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ops
}

// killErr is the scripted "target is down" failure: ErrOffline so the
// broker and retry layer treat it like any dead resource or peer.
func (t *Target) killErr(op, path string) error {
	return types.E(op, path, fmt.Errorf("faultnet: %s killed: %w", t.name, types.ErrOffline))
}

// dropErr is the scripted transport failure: wraps
// io.ErrUnexpectedEOF so resilience.Transport classifies it.
func (t *Target) dropErr() error {
	return fmt.Errorf("faultnet: %s dropped: %w", t.name, io.ErrUnexpectedEOF)
}

// before gates one driver operation: latency spike, kill switch, then
// the error-after-N-ops script.
func (t *Target) before(op, path string) error {
	t.mu.Lock()
	t.ops++
	killed := t.killed
	var err error
	if !killed && t.failErr != nil {
		if t.failOps > 0 {
			t.failOps--
		} else {
			err = t.failErr
		}
	}
	spike, prob := t.spike, t.spikeProb
	t.mu.Unlock()
	if spike > 0 && t.in.roll(prob) {
		t.in.wait(spike)
	}
	if killed {
		return t.killErr(op, path)
	}
	return err
}

// ioGate rejects I/O on open handles once the target is killed.
func (t *Target) ioGate(op, path string) error {
	t.mu.Lock()
	killed := t.killed
	t.mu.Unlock()
	if killed {
		return t.killErr(op, path)
	}
	return nil
}

// takeWrite charges n bytes against the partial-write budget and
// returns how many may actually be written, with ErrInjected once the
// budget is crossed.
func (t *Target) takeWrite(n int) (int, error) {
	return t.take(&t.writeBudget, n, "write")
}

// takeRead is takeWrite for the partial-read budget.
func (t *Target) takeRead(n int) (int, error) {
	return t.take(&t.readBudget, n, "read")
}

func (t *Target) take(budget *int64, n int, what string) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if *budget < 0 || int64(n) <= *budget {
		if *budget >= 0 {
			*budget -= int64(n)
		}
		return n, nil
	}
	allowed := int(*budget)
	*budget = 0
	return allowed, fmt.Errorf("faultnet: %s partial %s after %d bytes: %w", t.name, what, allowed, ErrInjected)
}

// takeConn charges n bytes against the connection budget; a non-nil
// error means the conn must drop after moving allowed bytes.
func (t *Target) takeConn(n int) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.connBudget < 0 || int64(n) <= t.connBudget {
		if t.connBudget >= 0 {
			t.connBudget -= int64(n)
		}
		return n, nil
	}
	allowed := int(t.connBudget)
	t.connBudget = 0
	return allowed, t.dropErr()
}

// connGate rejects conn I/O once the target is killed, with the same
// spike behaviour as driver ops.
func (t *Target) connGate() error {
	t.mu.Lock()
	killed := t.killed
	spike, prob := t.spike, t.spikeProb
	t.mu.Unlock()
	if spike > 0 && t.in.roll(prob) {
		t.in.wait(spike)
	}
	if killed {
		return t.dropErr()
	}
	return nil
}

// WrapDriver returns a driver whose every operation consults the named
// target's fault script before reaching inner.
func (in *Injector) WrapDriver(target string, inner storage.Driver) storage.Driver {
	t := in.Target(target)
	t.mu.Lock()
	t.inner = inner
	t.mu.Unlock()
	return &faultDriver{inner: inner, t: t}
}

// CorruptAtRest silently flips one byte of the stored file at path on
// the wrapped driver: the write goes straight to the inner driver
// (bypassing kill switches and budgets) and no catalog row changes, so
// only a byte-level re-hash — the scrubber, `srb checksum` — can
// notice. offset is taken modulo the file length.
func (t *Target) CorruptAtRest(path string, offset int64) error {
	t.mu.Lock()
	inner := t.inner
	t.mu.Unlock()
	if inner == nil {
		return types.E("corrupt", t.name, types.ErrUnsupported)
	}
	data, err := storage.ReadAll(inner, path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		return types.E("corrupt", path, types.ErrInvalid)
	}
	off := offset % int64(len(data))
	if off < 0 {
		off += int64(len(data))
	}
	data[off] ^= 0xFF
	return storage.WriteAll(inner, path, data)
}

type faultDriver struct {
	inner storage.Driver
	t     *Target
}

func (d *faultDriver) Create(path string) (storage.WriteFile, error) {
	if err := d.t.before("create", path); err != nil {
		return nil, err
	}
	w, err := d.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultWriter{inner: w, t: d.t, path: path}, nil
}

func (d *faultDriver) OpenAppend(path string) (storage.WriteFile, error) {
	if err := d.t.before("append", path); err != nil {
		return nil, err
	}
	w, err := d.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultWriter{inner: w, t: d.t, path: path}, nil
}

func (d *faultDriver) Open(path string) (storage.ReadFile, error) {
	if err := d.t.before("open", path); err != nil {
		return nil, err
	}
	r, err := d.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultReader{inner: r, t: d.t, path: path}, nil
}

func (d *faultDriver) Stat(path string) (storage.FileInfo, error) {
	if err := d.t.before("stat", path); err != nil {
		return storage.FileInfo{}, err
	}
	return d.inner.Stat(path)
}

func (d *faultDriver) Remove(path string) error {
	if err := d.t.before("remove", path); err != nil {
		return err
	}
	return d.inner.Remove(path)
}

func (d *faultDriver) Rename(oldPath, newPath string) error {
	if err := d.t.before("rename", oldPath); err != nil {
		return err
	}
	return d.inner.Rename(oldPath, newPath)
}

func (d *faultDriver) List(dir string) ([]storage.FileInfo, error) {
	if err := d.t.before("list", dir); err != nil {
		return nil, err
	}
	return d.inner.List(dir)
}

func (d *faultDriver) Mkdir(path string) error {
	if err := d.t.before("mkdir", path); err != nil {
		return err
	}
	return d.inner.Mkdir(path)
}

var _ storage.Driver = (*faultDriver)(nil)

type faultWriter struct {
	inner storage.WriteFile
	t     *Target
	path  string
}

func (w *faultWriter) Write(p []byte) (int, error) {
	if err := w.t.ioGate("write", w.path); err != nil {
		return 0, err
	}
	allowed, ferr := w.t.takeWrite(len(p))
	var n int
	var err error
	if allowed > 0 {
		n, err = w.inner.Write(p[:allowed])
		if err != nil {
			return n, err
		}
	}
	if ferr != nil {
		return n, types.E("write", w.path, ferr)
	}
	return n, nil
}

func (w *faultWriter) Close() error {
	if err := w.t.ioGate("close", w.path); err != nil {
		return err
	}
	return w.inner.Close()
}

// Abort passes through ungated: discarding a staged write needs nothing
// from the (possibly dead) store.
func (w *faultWriter) Abort() error { return storage.ForwardAbort(w.inner) }

type faultReader struct {
	inner storage.ReadFile
	t     *Target
	path  string
}

func (r *faultReader) Read(p []byte) (int, error) {
	if err := r.t.ioGate("read", r.path); err != nil {
		return 0, err
	}
	n, err := r.inner.Read(p)
	if n > 0 {
		if allowed, ferr := r.t.takeRead(n); ferr != nil {
			return allowed, types.E("read", r.path, ferr)
		}
	}
	return n, err
}

func (r *faultReader) ReadAt(p []byte, off int64) (int, error) {
	if err := r.t.ioGate("read", r.path); err != nil {
		return 0, err
	}
	return r.inner.ReadAt(p, off)
}

func (r *faultReader) Seek(offset int64, whence int) (int64, error) {
	return r.inner.Seek(offset, whence)
}

func (r *faultReader) Close() error { return r.inner.Close() }

// WrapConn returns a conn whose I/O consults the named target: a kill
// or an exhausted byte budget closes the underlying conn mid-frame, so
// the far side sees a truncated message, exactly like a crashed peer.
func (in *Injector) WrapConn(target string, c net.Conn) net.Conn {
	return &faultConn{Conn: c, t: in.Target(target)}
}

type faultConn struct {
	net.Conn
	t *Target
}

func (c *faultConn) Read(p []byte) (int, error) {
	if err := c.t.connGate(); err != nil {
		c.Conn.Close()
		return 0, err
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		if _, derr := c.t.takeConn(n); derr != nil {
			c.Conn.Close()
			return n, derr
		}
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	if err := c.t.connGate(); err != nil {
		c.Conn.Close()
		return 0, err
	}
	allowed, derr := c.t.takeConn(len(p))
	var n int
	if allowed > 0 {
		var err error
		n, err = c.Conn.Write(p[:allowed])
		if err != nil {
			return n, err
		}
	}
	if derr != nil {
		c.Conn.Close()
		return n, derr
	}
	return n, nil
}

// WrapDial wraps a dialer so the named target can refuse new
// connections (kill switch) and script faults on the conns it hands
// out.
func (in *Injector) WrapDial(target string, dial func(addr string) (net.Conn, error)) func(addr string) (net.Conn, error) {
	t := in.Target(target)
	return func(addr string) (net.Conn, error) {
		if err := t.connGate(); err != nil {
			return nil, err
		}
		c, err := dial(addr)
		if err != nil {
			return nil, err
		}
		return in.WrapConn(target, c), nil
	}
}
