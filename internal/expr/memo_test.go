package expr_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"memsched/internal/expr"
	"memsched/internal/hypergraph"
	"memsched/internal/metrics"
	"memsched/internal/sched"
)

// TestSweepPartitionsEachHypergraphOnce pins the partition work of the
// Fig. 6+7 sweep up to n=100: its two hMETIS+R variants request 20
// partitions of 10 distinct hypergraphs, and exactly 10 are computed at
// one worker and at two. Under -race only the hMETIS+R strategies run:
// the others request no partition and would only slow the test down.
func TestSweepPartitionsEachHypergraphOnce(t *testing.T) {
	for _, workers := range []int{1, 2} {
		f := expr.Fig6And7()
		wantRows := 60
		if raceEnabled {
			var kept []sched.Strategy
			for _, s := range f.Strategies {
				if strings.HasPrefix(s.Label, "hMETIS") {
					kept = append(kept, s)
				}
			}
			f.Strategies = kept
			wantRows = 20
		}
		var speed expr.SweepSpeed
		rows, err := f.Run(expr.RunOptions{MaxN: 100, Workers: workers, Speed: &speed})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != wantRows {
			t.Fatalf("workers %d: %d rows, want %d", workers, len(rows), wantRows)
		}
		p := speed.Partitions
		t.Logf("workers %d: %+v", workers, p)
		if p.Requested != 20 || p.Computed != 10 {
			t.Fatalf("workers %d: %d requested, %d computed; want 20 and 10", workers, p.Requested, p.Computed)
		}
	}
}

// TestSharedMemoAcrossConcurrentFigures runs Fig. 12 and Fig. 13, which
// sweep the same sparse2d instances under different memory sizes,
// concurrently over one memo: each must return the rows of its own run
// on a private memo, and the pair must partition each hypergraph once.
func TestSharedMemoAcrossConcurrentFigures(t *testing.T) {
	figs := []func() *expr.Figure{expr.Fig12, expr.Fig13}
	trim := func(f *expr.Figure) *expr.Figure {
		f.Points = f.Points[:3]
		return f
	}
	alone := make([][]metrics.Row, len(figs))
	var aloneComputed int64
	for i, fig := range figs {
		var speed expr.SweepSpeed
		rows, err := trim(fig()).Run(expr.RunOptions{Workers: 2, Speed: &speed})
		if err != nil {
			t.Fatal(err)
		}
		alone[i] = rows
		aloneComputed += speed.Partitions.Computed
	}

	memo := hypergraph.NewMemo()
	shared := make([][]metrics.Row, len(figs))
	errs := make([]error, len(figs))
	var wg sync.WaitGroup
	for i, fig := range figs {
		wg.Add(1)
		go func(i int, f *expr.Figure) {
			defer wg.Done()
			shared[i], errs[i] = f.Run(expr.RunOptions{Workers: 2, Partitions: memo})
		}(i, trim(fig()))
	}
	wg.Wait()
	for i := range figs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(alone[i], shared[i]) {
			t.Fatalf("figure %d: rows over the shared memo differ from its own run:\nalone:  %+v\nshared: %+v",
				i, alone[i], shared[i])
		}
	}
	got := memo.Counts()
	t.Logf("shared memo: %+v; separate runs computed %d", got, aloneComputed)
	if got.Computed == 0 || 2*got.Computed != aloneComputed {
		t.Fatalf("shared memo computed %d partitions, want half of the separate runs' %d", got.Computed, aloneComputed)
	}
}
