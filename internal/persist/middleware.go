// The hardening middlewares: composable Backend wrappers that turn a flaky
// store into one whose only failure mode is "miss". Stack order (outermost
// first) is breaker → retry → timeout → chaos → real backend, so that
//
//   - the retry layer never wastes attempts on a breaker that already knows
//     the backend is down (ErrBreakerOpen is produced above it), and
//   - the breaker counts post-retry outcomes: it trips only when an op
//     failed even after its retries, i.e. on sustained unavailability.
//
// Only *UnavailableError is ever retried. ErrNotFound is an answer,
// ErrNoSpace is final for the write that hit it, ErrLockHeld is a lost race;
// retrying any of them would be wrong, not just wasteful.
package persist

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Hardening defaults: applied when the corresponding Options field is 0
// (a negative value disables the layer entirely).
const (
	// DefaultRetries is the bounded retry budget per op beyond the first
	// attempt.
	DefaultRetries = 2
	// DefaultRetryBase is the first backoff step; attempt n sleeps
	// base·2ⁿ plus up to base of seeded jitter.
	DefaultRetryBase = 2 * time.Millisecond
	// DefaultBreakerThreshold is the consecutive-failure count that trips
	// the circuit breaker open.
	DefaultBreakerThreshold = 8
	// DefaultBreakerCooldown is how long an open breaker fast-fails before
	// half-opening for a probe.
	DefaultBreakerCooldown = time.Second
)

// StackStats is the hardening stack's live counter set, shared by every
// layer of one stack and exported to the persist.retry.* / persist.breaker.*
// / persist.chaos.* obs namespaces. All fields are atomic; snapshot with
// Snapshot.
type StackStats struct {
	RetryAttempts atomic.Uint64 // ops that entered the retry layer
	Retries       atomic.Uint64 // individual re-attempts after a transient failure
	RetryGiveups  atomic.Uint64 // ops still failing after the full budget

	Timeouts atomic.Uint64 // ops cut off by the per-op timeout

	BreakerTrips      atomic.Uint64 // closed/half-open → open transitions
	BreakerRejects    atomic.Uint64 // ops fast-failed while open
	BreakerProbes     atomic.Uint64 // half-open probe attempts
	BreakerRecoveries atomic.Uint64 // half-open → closed transitions

	ChaosErrs       atomic.Uint64 // injected transient errors
	ChaosTorn       atomic.Uint64 // injected torn writes
	ChaosCorrupt    atomic.Uint64 // injected payload bit flips
	ChaosNoSpace    atomic.Uint64 // injected ErrNoSpace
	ChaosLatency    atomic.Uint64 // injected latency spikes
	ChaosLockStalls atomic.Uint64 // injected lock-acquire stalls
}

// StackCounters is a point-in-time snapshot of StackStats.
type StackCounters struct {
	RetryAttempts, Retries, RetryGiveups                           uint64
	Timeouts                                                       uint64
	BreakerTrips, BreakerRejects, BreakerProbes, BreakerRecoveries uint64
	ChaosErrs, ChaosTorn, ChaosCorrupt, ChaosNoSpace               uint64
	ChaosLatency, ChaosLockStalls                                  uint64
}

// Snapshot reads every counter.
func (s *StackStats) Snapshot() StackCounters {
	return StackCounters{
		RetryAttempts:     s.RetryAttempts.Load(),
		Retries:           s.Retries.Load(),
		RetryGiveups:      s.RetryGiveups.Load(),
		Timeouts:          s.Timeouts.Load(),
		BreakerTrips:      s.BreakerTrips.Load(),
		BreakerRejects:    s.BreakerRejects.Load(),
		BreakerProbes:     s.BreakerProbes.Load(),
		BreakerRecoveries: s.BreakerRecoveries.Load(),
		ChaosErrs:         s.ChaosErrs.Load(),
		ChaosTorn:         s.ChaosTorn.Load(),
		ChaosCorrupt:      s.ChaosCorrupt.Load(),
		ChaosNoSpace:      s.ChaosNoSpace.Load(),
		ChaosLatency:      s.ChaosLatency.Load(),
		ChaosLockStalls:   s.ChaosLockStalls.Load(),
	}
}

// hardenStack assembles the configured middleware stack around inner. The
// order is fixed (see the package comment above); each layer is skipped when
// its Options field disables it.
func hardenStack(inner Backend, opt Options, st *StackStats) Backend {
	b := inner
	if opt.Chaos != nil {
		b = NewChaos(b, opt.Chaos, st)
	}
	if opt.OpTimeout > 0 {
		b = newTimeoutBackend(b, opt.OpTimeout, st)
	}
	retries, base := opt.Retries, opt.RetryBase
	if retries == 0 {
		retries = DefaultRetries
	}
	if base <= 0 {
		base = DefaultRetryBase
	}
	if retries > 0 {
		seed := opt.RetrySeed
		if seed == 0 {
			seed = 1
		}
		b = newRetryBackend(b, retries, base, seed, st)
	}
	threshold, cooldown := opt.BreakerThreshold, opt.BreakerCooldown
	if threshold == 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	if threshold > 0 {
		b = newBreakerBackend(b, threshold, cooldown, st)
	}
	return b
}

// retryable reports whether an error is worth another attempt: only the
// transient *UnavailableError class qualifies.
func retryable(err error) bool {
	var ue *UnavailableError
	return errors.As(err, &ue)
}

// retryBackend re-attempts transient failures with exponential backoff and
// seeded jitter. Lock operations pass through untouched: ErrLockHeld is a
// lost race, and an unavailable lock plane fails open at the Cache layer.
type retryBackend struct {
	inner Backend
	max   int // re-attempts after the first try
	base  time.Duration
	st    *StackStats

	mu  sync.Mutex
	rng *rand.Rand
}

func newRetryBackend(inner Backend, max int, base time.Duration, seed uint64, st *StackStats) *retryBackend {
	return &retryBackend{
		inner: inner, max: max, base: base, st: st,
		rng: rand.New(rand.NewSource(int64(seed))),
	}
}

// jitter draws a seeded uniform duration in [0, base).
func (r *retryBackend) jitter() time.Duration {
	r.mu.Lock()
	d := time.Duration(r.rng.Int63n(int64(r.base)))
	r.mu.Unlock()
	return d
}

// do runs op with the retry budget. The backoff before re-attempt n
// (0-based) is base·2ⁿ plus jitter.
func (r *retryBackend) do(op func() error) error {
	r.st.RetryAttempts.Add(1)
	err := op()
	for n := 0; n < r.max && retryable(err); n++ {
		time.Sleep(r.base<<uint(n) + r.jitter())
		r.st.Retries.Add(1)
		err = op()
	}
	if retryable(err) {
		r.st.RetryGiveups.Add(1)
	}
	return err
}

func (r *retryBackend) Get(kind, name string) (data []byte, err error) {
	err = r.do(func() error { data, err = r.inner.Get(kind, name); return err })
	return data, err
}

func (r *retryBackend) Put(kind, name string, data []byte) error {
	return r.do(func() error { return r.inner.Put(kind, name, data) })
}

func (r *retryBackend) Delete(kind, name string) error {
	return r.do(func() error { return r.inner.Delete(kind, name) })
}

func (r *retryBackend) List(kind string) (out []Stat, err error) {
	err = r.do(func() error { out, err = r.inner.List(kind); return err })
	return out, err
}

func (r *retryBackend) TryLock(name string) (func(), error) { return r.inner.TryLock(name) }
func (r *retryBackend) LockAge(name string) (time.Duration, error) {
	return r.inner.LockAge(name)
}
func (r *retryBackend) BreakLock(name string) error { return r.inner.BreakLock(name) }

// timeoutBackend bounds each object op's wall-clock time. An op that blows
// its budget returns *UnavailableError immediately; the underlying call is
// left to finish (and be discarded) in the background, since a hung disk
// cannot be cancelled from userspace. Lock ops are exempt: they are already
// bounded polls at the Cache layer.
type timeoutBackend struct {
	inner Backend
	d     time.Duration
	st    *StackStats
}

func newTimeoutBackend(inner Backend, d time.Duration, st *StackStats) *timeoutBackend {
	return &timeoutBackend{inner: inner, d: d, st: st}
}

func (t *timeoutBackend) do(op, kind, name string, fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	timer := time.NewTimer(t.d)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		t.st.Timeouts.Add(1)
		return unavailable(op, kind, name, errors.New("operation timed out"))
	}
}

func (t *timeoutBackend) Get(kind, name string) (data []byte, err error) {
	werr := t.do("get", kind, name, func() error {
		var e error
		data, e = t.inner.Get(kind, name)
		return e
	})
	if werr != nil {
		return nil, werr
	}
	return data, nil
}

func (t *timeoutBackend) Put(kind, name string, data []byte) error {
	return t.do("put", kind, name, func() error { return t.inner.Put(kind, name, data) })
}

func (t *timeoutBackend) Delete(kind, name string) error {
	return t.do("delete", kind, name, func() error { return t.inner.Delete(kind, name) })
}

func (t *timeoutBackend) List(kind string) (out []Stat, err error) {
	werr := t.do("list", kind, "", func() error {
		var e error
		out, e = t.inner.List(kind)
		return e
	})
	if werr != nil {
		return nil, werr
	}
	return out, nil
}

func (t *timeoutBackend) TryLock(name string) (func(), error) { return t.inner.TryLock(name) }
func (t *timeoutBackend) LockAge(name string) (time.Duration, error) {
	return t.inner.LockAge(name)
}
func (t *timeoutBackend) BreakLock(name string) error { return t.inner.BreakLock(name) }

// Breaker states.
const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breakerBackend is the per-backend circuit breaker. threshold consecutive
// transient failures trip it open; while open every op fast-fails with
// ErrBreakerOpen (no backend touch, no retry — the layer sits outermost).
// After cooldown the next op becomes the half-open probe: its success closes
// the breaker, its failure re-trips the full cooldown. Lock ops bypass the
// breaker entirely — they fail open at the Cache layer and must never be
// able to wedge it.
type breakerBackend struct {
	inner     Backend
	threshold int
	cooldown  time.Duration
	st        *StackStats
	now       func() time.Time // injectable for deterministic tests

	mu       sync.Mutex
	state    int
	fails    int  // consecutive transient failures while closed
	probing  bool // a half-open probe is in flight
	openedAt time.Time
}

func newBreakerBackend(inner Backend, threshold int, cooldown time.Duration, st *StackStats) *breakerBackend {
	return &breakerBackend{
		inner: inner, threshold: threshold, cooldown: cooldown, st: st,
		state: breakerClosed, now: time.Now,
	}
}

// admit decides whether an op may proceed. It returns ErrBreakerOpen for
// fast-fail, and probe=true when the op is the half-open probe.
func (b *breakerBackend) admit() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return false, nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			b.st.BreakerRejects.Add(1)
			return false, ErrBreakerOpen
		}
		b.state = breakerHalfOpen
		b.probing = true
		b.st.BreakerProbes.Add(1)
		return true, nil
	default: // half-open
		if b.probing {
			b.st.BreakerRejects.Add(1)
			return false, ErrBreakerOpen
		}
		b.probing = true
		b.st.BreakerProbes.Add(1)
		return true, nil
	}
}

// settle records an op's outcome. Only transient unavailability counts as
// failure: ErrNotFound, ErrNoSpace and nil all prove the backend reachable.
func (b *breakerBackend) settle(probe bool, err error) {
	failed := retryable(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
		if failed {
			b.state = breakerOpen
			b.openedAt = b.now()
			b.st.BreakerTrips.Add(1)
		} else {
			b.state = breakerClosed
			b.fails = 0
			b.st.BreakerRecoveries.Add(1)
		}
		return
	}
	if b.state != breakerClosed {
		return // an op admitted before the trip; its outcome is stale
	}
	if !failed {
		b.fails = 0
		return
	}
	b.fails++
	if b.fails >= b.threshold {
		b.state = breakerOpen
		b.openedAt = b.now()
		b.st.BreakerTrips.Add(1)
	}
}

func (b *breakerBackend) do(fn func() error) error {
	probe, err := b.admit()
	if err != nil {
		return err
	}
	err = fn()
	b.settle(probe, err)
	return err
}

func (b *breakerBackend) Get(kind, name string) (data []byte, err error) {
	werr := b.do(func() error {
		var e error
		data, e = b.inner.Get(kind, name)
		return e
	})
	if werr != nil {
		return nil, werr
	}
	return data, nil
}

func (b *breakerBackend) Put(kind, name string, data []byte) error {
	return b.do(func() error { return b.inner.Put(kind, name, data) })
}

func (b *breakerBackend) Delete(kind, name string) error {
	return b.do(func() error { return b.inner.Delete(kind, name) })
}

func (b *breakerBackend) List(kind string) (out []Stat, err error) {
	werr := b.do(func() error {
		var e error
		out, e = b.inner.List(kind)
		return e
	})
	if werr != nil {
		return nil, werr
	}
	return out, nil
}

func (b *breakerBackend) TryLock(name string) (func(), error) { return b.inner.TryLock(name) }
func (b *breakerBackend) LockAge(name string) (time.Duration, error) {
	return b.inner.LockAge(name)
}
func (b *breakerBackend) BreakLock(name string) error { return b.inner.BreakLock(name) }
