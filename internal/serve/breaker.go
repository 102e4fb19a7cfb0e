package serve

import (
	"sort"
	"sync"
	"time"
)

// Breaker is a per-key circuit breaker. Inside the server keys are
// (workload, strategy) pairs (JobRequest.Key): because the simulator is
// deterministic, a combination that fails permanently will keep
// failing, so after Threshold consecutive permanent failures the
// breaker opens and submissions for that key are shed immediately (503
// + Retry-After) instead of burning queue slots and worker time. The
// fleet router reuses the same machinery with replica base URLs as
// keys: a replica that keeps refusing dispatches is taken out of the
// rotation until a probe succeeds.
//
// After Cooldown the breaker goes half-open: the next submission is
// admitted as a probe. A probe success closes the breaker; a probe
// failure re-opens it for another full Cooldown.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu     sync.Mutex
	states map[string]*breakerState
	trips  int64
}

type breakerState struct {
	fails     int       // consecutive permanent failures while closed
	openUntil time.Time // zero when closed
	tripped   bool      // open or half-open
	probing   bool      // a half-open probe is in flight
}

// NewBreaker builds a breaker that opens a key after threshold
// consecutive failures and sheds it for cooldown before admitting a
// probe. A non-positive threshold disables the breaker; a nil clock
// uses time.Now.
func NewBreaker(threshold int, cooldown time.Duration, now func() time.Time) *Breaker {
	if now == nil {
		now = time.Now
	}
	return &Breaker{
		threshold: threshold,
		cooldown:  cooldown,
		now:       now,
		states:    make(map[string]*breakerState),
	}
}

// Allow reports whether a submission for key may be admitted; when it
// may not, retryAfter is the remaining cooldown.
func (b *Breaker) Allow(key string) (ok bool, retryAfter time.Duration) {
	if b.threshold <= 0 {
		return true, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[key]
	if st == nil || !st.tripped {
		return true, 0
	}
	if remaining := st.openUntil.Sub(b.now()); remaining > 0 {
		return false, remaining
	}
	// Cooldown elapsed: half-open. Admit one probe at a time; further
	// submissions stay shed until the probe settles.
	if st.probing {
		return false, b.cooldown
	}
	st.probing = true
	return true, 0
}

// OnSuccess records a permanent success for key, closing its breaker.
func (b *Breaker) OnSuccess(key string) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if st := b.states[key]; st != nil {
		st.fails, st.tripped, st.probing, st.openUntil = 0, false, false, time.Time{}
	}
}

// OnFailure records a permanent failure for key, tripping the breaker
// after threshold consecutive failures (or immediately when a half-open
// probe fails). It reports whether this failure opened the breaker, so
// the caller can record a breaker-trip event.
func (b *Breaker) OnFailure(key string) (tripped bool) {
	if b.threshold <= 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.states[key]
	if st == nil {
		st = &breakerState{}
		b.states[key] = st
	}
	if st.tripped {
		// Half-open probe failed (or a straggler from before the trip):
		// re-open for a full cooldown.
		st.openUntil = b.now().Add(b.cooldown)
		st.probing = false
		b.trips++
		return true
	}
	st.fails++
	if st.fails >= b.threshold {
		st.tripped = true
		st.openUntil = b.now().Add(b.cooldown)
		st.fails = 0
		b.trips++
		return true
	}
	return false
}

// TripCount returns the total number of times any key's breaker opened.
func (b *Breaker) TripCount() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// OpenKeys returns the keys whose breakers are currently open or
// half-open, sorted, for the /metrics and /readyz snapshots.
func (b *Breaker) OpenKeys() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var keys []string
	for k, st := range b.states {
		if st.tripped {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
