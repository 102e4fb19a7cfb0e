package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"memsched/internal/baseline"
	"memsched/internal/critpath"
	"memsched/internal/expr"
	"memsched/internal/metrics"
	"memsched/internal/taskgraph"
)

// sweepWorkload is one figure sweep handed to expr.
type sweepWorkload struct {
	figure func() *expr.Figure
	// bench is the committed baseline the rows must equal.
	bench string
	// maxN caps the sweep points (0 keeps them all).
	maxN int
	// telemetry sets OnCell, turning on decision digests and critical
	// paths: the paperbench -telemetry path.
	telemetry bool
	// heavy selects the strategies whose cells pass through the
	// workload's dominant layer.
	heavy func(label string) bool
}

// sweepHMETIS is dominated by hMETIS+R's hypergraph partitioning: the
// two hMETIS+R variants partition identical hypergraphs at every point.
var sweepHMETIS = sweepWorkload{
	figure: expr.Fig6And7, bench: "BENCH_fig6_7.json", maxN: 100, heavy: isPartitioner,
}

// sweepTelemetry partitions nothing: its time goes to mHFP packing,
// DARTS/DMDAR pops, the event core, telemetry and critpath.Analyze.
var sweepTelemetry = sweepWorkload{
	figure: expr.Fig3And4, bench: "BENCH_fig3_4.json", telemetry: true, heavy: isPacker,
}

// setupReps set-ups are timed before the first pass; setup_s is their
// median. A set-up is the fixed work a baseline-checked sweep does
// before its cells run: load the committed baseline, construct the
// figure and build the task graph of every point it will run.
const setupReps = 9

// setUp does one set-up.
func (w sweepWorkload) setUp() error {
	if _, err := baseline.Load(w.bench); err != nil {
		return fmt.Errorf("load reference: %w", err)
	}
	f := w.figure()
	built := 0
	for _, p := range f.Points {
		if w.maxN > 0 && p.N > w.maxN {
			continue
		}
		if inst := p.Build(); inst.NumTasks() == 0 {
			return fmt.Errorf("point %d builds an empty task graph", p.N)
		}
		built++
	}
	if built == 0 {
		return fmt.Errorf("figure has no points")
	}
	return nil
}

// permute reorders the figure's points and strategies from rng. Cells
// are keyed by (workload, strategy), so outputs are unchanged; only the
// order cells reach the workers changes.
func permute(f *expr.Figure, rng *rand.Rand) {
	rng.Shuffle(len(f.Points), func(i, j int) { f.Points[i], f.Points[j] = f.Points[j], f.Points[i] })
	rng.Shuffle(len(f.Strategies), func(i, j int) { f.Strategies[i], f.Strategies[j] = f.Strategies[j], f.Strategies[i] })
}

// cellCount is the number of (point, strategy) cells the sweep runs.
func (w sweepWorkload) cellCount() int {
	f := w.figure()
	n := 0
	for _, p := range f.Points {
		if w.maxN == 0 || p.N <= w.maxN {
			n++
		}
	}
	return n * len(f.Strategies)
}

// sweepOutput is what one Figure.Run produced.
type sweepOutput struct {
	rows  []metrics.Row
	cells []expr.CellTelemetry
	err   error
}

// runOnce runs the figure once. Telemetry sweeps encode each cell as
// JSON, the work paperbench -telemetry does; encode, when non-nil, does
// that instead so the traced run can time it.
func (w sweepWorkload) runOnce(f *expr.Figure, workers int, speed *expr.SweepSpeed, encode func(expr.CellTelemetry)) sweepOutput {
	var out sweepOutput
	opt := expr.RunOptions{MaxN: w.maxN, Workers: workers, Gauges: new(metrics.Gauges), Speed: speed}
	if w.telemetry {
		enc := json.NewEncoder(io.Discard)
		opt.OnCell = func(c expr.CellTelemetry) {
			if encode != nil {
				encode(c)
			} else if err := enc.Encode(c); err != nil {
				out.err = err
			}
			out.cells = append(out.cells, c)
		}
	}
	rows, err := f.Run(opt)
	out.rows = rows
	if err != nil {
		out.err = err
	}
	return out
}

// check verifies one pass's outputs and counts its cells into rep.
func (w sweepWorkload) check(rep *report, bench *baseline.File, out sweepOutput, want int) {
	rep.attempted += want
	if out.err != nil {
		rep.problem("sweep error: %v", out.err)
		rep.failed += want - len(out.rows)
	}
	var problems []string
	if w.telemetry {
		problems = checkTelemetryCells(bench, out.cells, want)
		if len(out.rows) != len(out.cells) {
			problems = append(problems, fmt.Sprintf("%d rows but %d telemetry cells", len(out.rows), len(out.cells)))
		}
	} else {
		problems = checkRows(bench, out.rows, want)
	}
	rep.problems = append(rep.problems, problems...)
}

func runSweep(w sweepWorkload, cfg runConfig) (*report, error) {
	bench, err := baseline.Load(w.bench)
	if err != nil {
		return nil, fmt.Errorf("load reference: %w", err)
	}
	rep := &report{values: map[string]float64{}}
	want := w.cellCount()
	rng := rand.New(rand.NewSource(cfg.seed))

	if cfg.trace {
		return rep, w.traced(rep, bench, want, rng, cfg)
	}

	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// The set-ups' task graphs are garbage; collect them so the first
	// pass starts from the same heap as the others.
	runtime.GC()

	workers := runtime.GOMAXPROCS(0)
	ops := opStats{class: mean}
	var ps passes
	start := time.Now()
	for pass := 0; ps.more(start, cfg.seconds); pass++ {
		var all, heavy, light latencies
		onDone := func(label string, d time.Duration) {
			all.add(d)
			if w.heavy(label) {
				heavy.add(d)
			} else {
				light.add(d)
			}
		}
		f := w.figure()
		permute(f, rng)
		for i, s := range f.Strategies {
			f.Strategies[i] = probeStrategy(s, onDone, nil)
		}
		var out sweepOutput
		wall := ps.measure(func() { out = w.runOnce(f, workers, nil, nil) })
		w.check(rep, bench, out, want)
		fmt.Printf("pass %d: %.3fs, %d cells\n", pass, wall.Seconds(), len(out.rows))
		if len(all.ms) != want {
			rep.problem("pass %d: %d cell latencies for %d cells", pass, len(all.ms), want)
		}
		ops.pass(&all, &heavy, &light)
	}
	ps.record(rep.values)
	rep.values["peak_heap_mb"] = median(ps.heapMB)
	rep.values["setup_s"] = median(setups)
	ops.record(rep.values, "cell latency", "heavy", "light")
	return rep, nil
}

// traced runs the sweep at one worker twice, untraced and then through
// the timing wrappers, so the difference shows the tracing overhead and
// every call can be attributed to one cell.
func (w sweepWorkload) traced(rep *report, bench *baseline.File, want int, rng *rand.Rand, cfg runConfig) error {
	v := rep.values
	f := w.figure()
	permute(f, rng)
	t0 := time.Now()
	plain := w.runOnce(f, 1, nil, nil)
	v["expr.sweep_1w_s"] = time.Since(t0).Seconds()
	w.check(rep, bench, plain, want)

	log := newSpanLog()
	layers := &layerTimes{log: log}
	f = w.figure()
	permute(f, rng)
	// Cells run back to back on the single worker, so a cell spans from
	// its Build to the next cell's Build (the last one to the sweep's end
	// or its first telemetry record).
	// With one worker the cells also run in sweep order (points outer,
	// strategies inner), which names the strategy of each Build.
	labels := make([]string, len(f.Strategies))
	for i, s := range f.Strategies {
		labels[i] = s.Label
	}
	var cellStarts []time.Time
	var cellIDs []string
	for i, p := range f.Points {
		build := p.Build
		f.Points[i].Build = func() *taskgraph.Instance {
			b0 := time.Now()
			inst := build()
			b1 := time.Now()
			layers.build += b1.Sub(b0)
			id := f.ID + ":" + inst.Name() + ":" + labels[len(cellStarts)%len(labels)]
			cellStarts = append(cellStarts, b0)
			cellIDs = append(cellIDs, id)
			layers.cellID = id
			log.add(span{ID: id, Name: "workload.build", Parent: "cell", Start: log.at(b0), End: log.at(b1)})
			return inst
		}
	}
	for i, s := range f.Strategies {
		f.Strategies[i] = probeStrategy(s, nil, layers)
	}
	var encodeTime time.Duration
	var endMark time.Time
	enc := json.NewEncoder(io.Discard)
	encode := func(c expr.CellTelemetry) {
		e0 := time.Now()
		if endMark.IsZero() {
			endMark = e0
		}
		err := enc.Encode(c)
		e1 := time.Now()
		encodeTime += e1.Sub(e0)
		if err != nil {
			rep.problem("encode %s: %v", c.Workload, err)
		}
		log.add(span{ID: baseline.FromRow(c.Row, nil, nil).Key(), Name: "expr.encode", Start: log.at(e0), End: log.at(e1)})
	}
	var speed expr.SweepSpeed
	t0 = time.Now()
	out := w.runOnce(f, 1, &speed, encode)
	t1 := time.Now()
	v["expr.sweep_1w_traced_s"] = t1.Sub(t0).Seconds()
	w.check(rep, bench, out, want)
	if endMark.IsZero() {
		endMark = t1
	}

	var cellTotal, cellMax time.Duration
	for i, s := range cellStarts {
		end := endMark
		if i+1 < len(cellStarts) {
			end = cellStarts[i+1]
		}
		d := end.Sub(s)
		cellTotal += d
		if d > cellMax {
			cellMax = d
		}
		log.add(span{ID: cellIDs[i], Name: "cell", Start: log.at(s), End: log.at(end)})
	}

	var critTime time.Duration
	critCalls := 0
	if w.telemetry {
		critTime, critCalls = w.critpathDirect(rep, out.cells, log)
	}

	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	// The engine's own time: each simulation minus the scheduler and
	// eviction callbacks inside it. What a cell spends after its
	// simulation (critical path, digests, bookkeeping) is the cell time
	// left over; on the telemetry sweep it should be close to the
	// directly timed critpath.analyze_ms.
	self := layers.simTime - layers.partition - layers.hfpInit - layers.otherInit -
		layers.popTime - layers.victimTime
	after := cellTotal - layers.build - layers.simTime
	v["expr.cells"] = float64(len(cellStarts))
	v["expr.cell_max_ms"] = ms(cellMax)
	v["expr.encode_ms"] = ms(encodeTime)
	v["workload.build_ms"] = ms(layers.build)
	v["hypergraph.partition_ms"] = ms(layers.partition)
	v["hypergraph.partitions"] = float64(layers.partitions)
	v["hypergraph.alloc_mb"] = float64(layers.partitionAlloc) / 1e6
	v["sched.hfp_init_ms"] = ms(layers.hfpInit)
	v["sched.hfp_alloc_mb"] = float64(layers.hfpAlloc) / 1e6
	v["sched.init_ms"] = ms(layers.otherInit)
	v["sched.pops"] = float64(layers.pops)
	v["sched.pop_ms"] = ms(layers.popTime)
	if layers.pops > 0 {
		v["sched.pop_ns"] = float64(layers.popTime.Nanoseconds()) / float64(layers.pops)
	}
	v["memory.victims"] = float64(layers.victims)
	v["memory.victim_ms"] = ms(layers.victimTime)
	v["sim.events"] = float64(speed.Events)
	v["sim.self_ms"] = ms(self)
	if self > 0 {
		v["sim.events_per_s"] = float64(speed.Events) / self.Seconds()
	}
	v["critpath.calls"] = float64(critCalls)
	v["critpath.analyze_ms"] = ms(critTime)
	fmt.Printf("traced: 1-worker sweep %.3fs untraced, %.3fs traced; cells sum %.3fs, of which %.3fs after the simulations\n",
		v["expr.sweep_1w_s"], v["expr.sweep_1w_traced_s"], cellTotal.Seconds(), after.Seconds())
	if err := log.write(cfg.spansPath); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans: %d written to %s\n", len(log.spans), cfg.spansPath)
	return nil
}

// critpathDirect times critpath.Analyze and Summarize, which Figure.Run
// calls internally with no seam around them: each cell's first replica
// is re-run with its trace kept (expr.RunOneTraced, untimed) and the
// attribution timed on it. The summary must equal the one the sweep
// produced.
func (w sweepWorkload) critpathDirect(rep *report, cells []expr.CellTelemetry, log *spanLog) (time.Duration, int) {
	byKey := make(map[string]expr.CellTelemetry, len(cells))
	for _, c := range cells {
		byKey[baseline.FromRow(c.Row, nil, nil).Key()] = c
	}
	f := w.figure()
	var total time.Duration
	calls := 0
	for _, p := range f.Points {
		if w.maxN > 0 && p.N > w.maxN {
			continue
		}
		for _, s := range f.Strategies {
			inst := p.Build()
			res, err := expr.RunOneTraced(context.Background(), inst, s, f.Platform, f.NsPerOp, f.Seed, false, nil)
			if err != nil {
				rep.problem("critpath re-run %s %s: %v", inst.Name(), s.Label, err)
				continue
			}
			key := f.ID + ":" + inst.Name() + ":" + s.Label
			t0 := time.Now()
			path, err := critpath.Analyze(inst, res)
			var sum *critpath.Summary
			if err == nil {
				sum = critpath.Summarize(inst, path)
			}
			t1 := time.Now()
			total += t1.Sub(t0)
			calls++
			log.add(span{ID: key, Name: "critpath.analyze", Parent: "cell", Start: log.at(t0), End: log.at(t1)})
			if err != nil {
				rep.problem("%s: critpath: %v", key, err)
				continue
			}
			if c, ok := byKey[key]; !ok || !reflect.DeepEqual(c.CritPath, sum) {
				rep.problem("%s: sweep critical path differs from a direct analysis", key)
			}
		}
	}
	return total, calls
}
