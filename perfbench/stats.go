package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// nearestRank returns the q-quantile of ascending samples by the
// nearest-rank rule: the ceil(q*n)-th smallest sample (1-based), so the
// result is always one of the measured values. NaN when empty.
func nearestRank(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return sorted[r-1]
}

// beyond counts the ascending samples strictly greater than v.
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// median is the middle of the samples (the mean of the two middle ones
// for an even count), as Python's statistics.median computes it. It is
// used for per-run aggregates, not for latency quantiles.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencies collects per-op latency samples in milliseconds.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d.Nanoseconds())/1e6)
	l.mu.Unlock()
}

// sorted returns an ascending copy of the samples.
func (l *latencies) sorted() []float64 {
	l.mu.Lock()
	s := append([]float64(nil), l.ms...)
	l.mu.Unlock()
	sort.Float64s(s)
	return s
}

// opStats reduces each pass's op latencies to the pass's p90 and the
// statistic of each class, and reports the median of each over the
// passes: a rank over all samples of a run would hinge on its few
// slowest passes. The samples are also pooled over the run for the
// printed quantiles.
type opStats struct {
	// class is the per-pass statistic of a class: the mean or the p50.
	class                 func(sorted []float64) float64
	all, heavy, light     []float64 // pooled samples
	p90, heavyOf, lightOf []float64 // one per pass
}

// pass adds one pass's samples.
func (s *opStats) pass(all, heavy, light *latencies) {
	a, h, l := all.sorted(), heavy.sorted(), light.sorted()
	s.p90 = append(s.p90, nearestRank(a, 0.90))
	s.heavyOf = append(s.heavyOf, s.class(h))
	s.lightOf = append(s.lightOf, s.class(l))
	s.all, s.heavy, s.light = append(s.all, a...), append(s.heavy, h...), append(s.light, l...)
}

// record stores the medians over passes as end-to-end metrics and
// prints the pooled quantiles of each class under the name of the op.
func (s *opStats) record(values map[string]float64, op, heavy, light string) {
	values["p90_ms"] = median(s.p90)
	values["heavy_ms"] = median(s.heavyOf)
	values["light_ms"] = median(s.lightOf)
	for _, c := range []struct {
		name string
		ms   []float64
	}{{"all", s.all}, {heavy, s.heavy}, {light, s.light}} {
		sort.Float64s(c.ms)
		fmt.Printf("%s: %s %s\n", op, c.name, describeQuantiles(c.ms))
	}
}

// mean is the average of the samples, NaN when empty.
func mean(ms []float64) float64 {
	if len(ms) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	return sum / float64(len(ms))
}

// p50 is the nearest-rank median of ascending samples.
func p50(sorted []float64) float64 { return nearestRank(sorted, 0.50) }

// describeQuantiles renders p50/p90/p99 of ascending samples with the
// sample count and, for each percentile, how many samples lie beyond
// it, so a reader can tell how many samples a tail figure rests on.
func describeQuantiles(sorted []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d", len(sorted))
	for _, q := range []float64{0.50, 0.90, 0.99} {
		v := nearestRank(sorted, q)
		fmt.Fprintf(&b, " p%.0f=%.4gms (%d beyond)", q*100, v, beyond(sorted, v))
	}
	return b.String()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapInUse reads the runtime's heap-in-use bytes (the HeapInuse of
// runtime.MemStats: object bytes plus unused bytes of in-use spans)
// without the stop-the-world pause ReadMemStats costs.
func heapInUse(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var total uint64
	for _, x := range s {
		if x.Value.Kind() == metrics.KindUint64 {
			total += x.Value.Uint64()
		}
	}
	return total
}

func heapSamples() []metrics.Sample {
	return []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
}

// heapSampleEvery is the peak-heap sampling period: short next to a pass
// (hundreds of milliseconds or more), cheap next to the work.
const heapSampleEvery = 2 * time.Millisecond

// passes records the wall time, CPU time and peak heap of each pass.
type passes struct {
	wall, cpu, heapMB []float64
}

// measure runs one pass under a heap sampler and records its costs.
func (p *passes) measure(fn func()) time.Duration {
	stop := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := heapSamples()
		max := heapInUse(s)
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				if v := heapInUse(s); v > max {
					max = v
				}
				peak <- max
				return
			case <-t.C:
				if v := heapInUse(s); v > max {
					max = v
				}
			}
		}
	}()
	c0, t0 := cpuTime(), time.Now()
	fn()
	wall, cpu := time.Since(t0), cpuTime()-c0
	close(stop)
	p.wall = append(p.wall, wall.Seconds())
	p.cpu = append(p.cpu, cpu.Seconds())
	p.heapMB = append(p.heapMB, float64(<-peak)/1e6)
	return wall
}

// more reports whether another pass fits in the measured duration: a
// pass starts only if it can end by then, judged by the last pass, so
// every run measures about the same span of time.
func (p *passes) more(start time.Time, d time.Duration) bool {
	if len(p.wall) == 0 {
		return true
	}
	last := time.Duration(p.wall[len(p.wall)-1] * float64(time.Second))
	return time.Since(start)+last <= d
}

// record stores the wall and CPU medians as end-to-end metrics.
func (p *passes) record(values map[string]float64) {
	values["sweep_s"] = median(p.wall)
	values["cpu_s"] = median(p.cpu)
}
