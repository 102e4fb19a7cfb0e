package main

import (
	"reflect"
	"testing"
	"time"

	"memsched/internal/expr"
	"memsched/internal/fault"
	"memsched/internal/metrics"
	"memsched/internal/sim"
	"memsched/internal/taskgraph"
)

// TestTracedSweepMatchesPlain runs a telemetry sweep plain and through
// the probes, untraced at two workers as the timed passes run and traced
// at one: cells, telemetry, decision digests and critical paths must all
// be identical.
func TestTracedSweepMatchesPlain(t *testing.T) {
	run := func(workers int, probe func(f *expr.Figure)) []expr.CellTelemetry {
		f := expr.Fig3And4()
		if probe != nil {
			probe(f)
		}
		var cells []expr.CellTelemetry
		_, err := f.Run(expr.RunOptions{MaxN: 17, Workers: workers, Gauges: new(metrics.Gauges),
			OnCell: func(c expr.CellTelemetry) { cells = append(cells, c) }})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	plain := run(1, nil)
	var latencies latencies
	untraced := run(2, func(f *expr.Figure) {
		for i, s := range f.Strategies {
			f.Strategies[i] = probeStrategy(s, func(_ string, d time.Duration) { latencies.add(d) }, nil)
		}
	})
	layers := &layerTimes{log: newSpanLog()}
	traced := run(1, func(f *expr.Figure) {
		for i, s := range f.Strategies {
			f.Strategies[i] = probeStrategy(s, nil, layers)
		}
	})
	if len(plain) != 18 {
		t.Fatalf("%d cells, want 18", len(plain))
	}
	for _, c := range plain {
		if c.Decisions == nil || c.CritPath == nil {
			t.Fatalf("%s %s: sweep recorded no digest or critical path", c.Workload, c.Scheduler)
		}
	}
	if !reflect.DeepEqual(plain, untraced) {
		t.Error("untraced probes changed the cells")
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Error("traced probes changed the cells")
	}
	if n := len(latencies.sorted()); n != len(plain) {
		t.Errorf("%d cell latencies for %d cells", n, len(plain))
	}
	if layers.pops == 0 || layers.hfpInit == 0 || layers.otherInit == 0 {
		t.Errorf("traced probes saw no work: %+v", layers)
	}
}

// TestProbesUnderDropout runs a 2-GPU sweep that loses a GPU: recovery
// goes through sim.DropoutHandler, which the probes must forward.
func TestProbesUnderDropout(t *testing.T) {
	plan, err := fault.ParseSpec("drop=1@5ms")
	if err != nil {
		t.Fatal(err)
	}
	run := func(probe bool) []metrics.Row {
		f := expr.Fig6And7()
		if probe {
			layers := &layerTimes{log: newSpanLog()}
			for i, s := range f.Strategies {
				f.Strategies[i] = probeStrategy(s, nil, layers)
			}
		}
		rows, err := f.Run(expr.RunOptions{MaxN: 17, Workers: 1, Gauges: new(metrics.Gauges), Faults: plan})
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	if plain, probed := run(false), run(true); !reflect.DeepEqual(plain, probed) {
		t.Error("probes changed a faulty sweep")
	}
}

type bareScheduler struct{}

func (bareScheduler) Name() string                              { return "bare" }
func (bareScheduler) Init(*taskgraph.Instance, sim.RuntimeView) {}
func (bareScheduler) PopTask(int) (taskgraph.TaskID, bool)      { return 0, false }
func (bareScheduler) TaskDone(int, taskgraph.TaskID)            {}
func (bareScheduler) DataLoaded(int, taskgraph.DataID)          {}
func (bareScheduler) DataEvicted(int, taskgraph.DataID)         {}

type droppingScheduler struct{ bareScheduler }

func (droppingScheduler) GPUDropped(int, []taskgraph.TaskID) {}

func TestWrapSchedulerKeepsDropoutHandler(t *testing.T) {
	if _, ok := wrapScheduler(bareScheduler{}, &cellProbe{}).(sim.DropoutHandler); ok {
		t.Error("wrapper claims a DropoutHandler the scheduler lacks")
	}
	if _, ok := wrapScheduler(droppingScheduler{}, &cellProbe{}).(sim.DropoutHandler); !ok {
		t.Error("wrapper hides the scheduler's DropoutHandler")
	}
}
