package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRankOnKnownSamples(t *testing.T) {
	var l latencies
	for _, ms := range []int{7, 1, 10, 3, 5, 9, 2, 8, 4, 6} {
		l.add(time.Duration(ms) * time.Millisecond)
	}
	s := l.sorted()
	for _, c := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0.01, 1, 9}, {0.50, 5, 5}, {0.90, 9, 1}, {0.99, 10, 0}, {1, 10, 0},
	} {
		got := nearestRank(s, c.q)
		if got != c.want {
			t.Errorf("q=%v: got %v, want %v", c.q, got, c.want)
		}
		if b := beyond(s, got); b != c.wantBeyond {
			t.Errorf("q=%v: %d beyond, want %d", c.q, b, c.wantBeyond)
		}
	}
	// Ties: every copy of the quantile value is at or below it.
	tied := []float64{1, 2, 2, 2, 3}
	if got, b := nearestRank(tied, 0.5), beyond(tied, 2); got != 2 || b != 1 {
		t.Errorf("tied: p50 %v with %d beyond, want 2 with 1", got, b)
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("empty samples must give NaN")
	}
	if got := nearestRank([]float64{4.5}, 0.99); got != 4.5 {
		t.Errorf("single sample: got %v", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
}

func TestOpStatsMediansOverPasses(t *testing.T) {
	ops := opStats{class: mean}
	// Three passes of ten ops, 1..10 ms scaled by 1, 2 and 10: the slow
	// third pass moves no median.
	for _, scale := range []int{1, 2, 10} {
		var all, heavy, light latencies
		for ms := 1; ms <= 10; ms++ {
			d := time.Duration(ms*scale) * time.Millisecond
			all.add(d)
			if ms > 5 {
				heavy.add(d)
			} else {
				light.add(d)
			}
		}
		ops.pass(&all, &heavy, &light)
	}
	v := map[string]float64{}
	ops.record(v, "op", "heavy", "light")
	for name, want := range map[string]float64{"p90_ms": 18, "heavy_ms": 16, "light_ms": 6} {
		if v[name] != want {
			t.Errorf("%s = %v, want %v", name, v[name], want)
		}
	}
	if len(ops.all) != 30 || len(ops.heavy) != 15 || len(ops.light) != 15 {
		t.Errorf("pooled %d/%d/%d samples, want 30/15/15", len(ops.all), len(ops.heavy), len(ops.light))
	}
	if got := p50([]float64{1, 2, 3, 4}); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2 (nearest rank)", got)
	}
}
