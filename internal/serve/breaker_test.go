package serve

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a manual clock for breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestBreakerTripHalfOpenRecover(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(3, time.Minute, clk.now)
	const key = "matmul2d|DARTS+LUF"

	// Below threshold: stays closed.
	b.OnFailure(key)
	b.OnFailure(key)
	if ok, _ := b.Allow(key); !ok {
		t.Fatal("breaker opened below threshold")
	}
	// Third consecutive failure trips it.
	b.OnFailure(key)
	ok, retryAfter := b.Allow(key)
	if ok {
		t.Fatal("breaker did not open at threshold")
	}
	if retryAfter <= 0 || retryAfter > time.Minute {
		t.Fatalf("retryAfter = %v, want (0, 1m]", retryAfter)
	}
	if got := b.TripCount(); got != 1 {
		t.Fatalf("tripCount = %d, want 1", got)
	}
	if keys := b.OpenKeys(); len(keys) != 1 || keys[0] != key {
		t.Fatalf("openKeys = %v, want [%s]", keys, key)
	}

	// Other keys are unaffected.
	if ok, _ := b.Allow("other|Eager"); !ok {
		t.Fatal("unrelated key was shed")
	}

	// Cooldown elapses: exactly one half-open probe is admitted.
	clk.advance(time.Minute + time.Second)
	if ok, _ := b.Allow(key); !ok {
		t.Fatal("half-open breaker did not admit a probe")
	}
	if ok, _ := b.Allow(key); ok {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe fails: re-open for a full cooldown.
	b.OnFailure(key)
	if ok, _ := b.Allow(key); ok {
		t.Fatal("breaker closed after failed probe")
	}
	if got := b.TripCount(); got != 2 {
		t.Fatalf("tripCount = %d, want 2", got)
	}

	// Next probe succeeds: fully closed again.
	clk.advance(time.Minute + time.Second)
	if ok, _ := b.Allow(key); !ok {
		t.Fatal("breaker did not half-open after second cooldown")
	}
	b.OnSuccess(key)
	for i := 0; i < 5; i++ {
		if ok, _ := b.Allow(key); !ok {
			t.Fatal("breaker not closed after probe success")
		}
	}
	// ...and the failure count restarted from zero.
	b.OnFailure(key)
	b.OnFailure(key)
	if ok, _ := b.Allow(key); !ok {
		t.Fatal("failure count was not reset by success")
	}
}

func TestBreakerDisabled(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(0, time.Minute, clk.now)
	for i := 0; i < 10; i++ {
		b.OnFailure("k")
	}
	if ok, _ := b.Allow("k"); !ok {
		t.Fatal("disabled breaker shed a submission")
	}
	if got := b.TripCount(); got != 0 {
		t.Fatalf("disabled breaker counted %d trips", got)
	}
}

// TestBreakerHalfOpenConcurrentProbes closes the PR 5 gap: when the
// cooldown elapses and many submissions race into the half-open
// breaker, exactly one wins the probe slot and every loser is shed with
// the full cooldown as its retry hint.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := NewBreaker(1, time.Minute, clk.now)
	const key = "cholesky|DMDAR"

	b.OnFailure(key) // threshold 1: open immediately
	clk.advance(time.Minute + time.Second)

	const racers = 32
	var admitted atomic.Int64
	var badHint atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ok, retryAfter := b.Allow(key)
			if ok {
				admitted.Add(1)
			} else if retryAfter != time.Minute {
				badHint.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", got)
	}
	if got := badHint.Load(); got != 0 {
		t.Fatalf("%d losers got a retry hint != full cooldown", got)
	}

	// While the probe is in flight the breaker keeps shedding, even
	// after more time passes.
	clk.advance(time.Hour)
	if ok, _ := b.Allow(key); ok {
		t.Fatal("breaker admitted a second probe while one was in flight")
	}

	// Probe success closes the breaker for everyone.
	b.OnSuccess(key)
	var reopened atomic.Int64
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ok, _ := b.Allow(key); !ok {
				reopened.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := reopened.Load(); got != 0 {
		t.Fatalf("%d submissions shed after the probe closed the breaker", got)
	}
}

// TestBreakerOpenKeysSorted: /metrics and /readyz publish OpenKeys as
// is, so it must not leak map order.
func TestBreakerOpenKeysSorted(t *testing.T) {
	b := NewBreaker(1, time.Minute, (&fakeClock{t: time.Unix(0, 0)}).now)
	want := []string{"a|X", "b|X", "c|X", "d|X", "e|X", "f|X"}
	for i := len(want) - 1; i >= 0; i-- {
		b.OnFailure(want[i])
	}
	for call := 0; call < 20; call++ {
		if got := b.OpenKeys(); !slices.Equal(got, want) {
			t.Fatalf("call %d: OpenKeys = %v, want %v", call, got, want)
		}
	}
}
