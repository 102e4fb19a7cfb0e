// Package expr defines one executable experiment per figure of the
// paper's evaluation (§V, Figures 3 to 13): workload sweep, platform,
// strategy set and cost model. Each experiment regenerates the series the
// figure plots (GFlop/s or MB transferred versus working-set size).
package expr

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"memsched/internal/critpath"
	"memsched/internal/fault"
	"memsched/internal/memory"
	"memsched/internal/metrics"
	"memsched/internal/platform"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/taskgraph"
)

// Gauges are the live sweep counters Run updates unless
// RunOptions.Gauges names another instance. They are deliberately *not*
// registered on the expvar registry here: expvar panics on duplicate
// names, so cmd/paperbench publishes them as memsched_* exactly once
// (Gauges.Publish). Tests and the benchmark harness, which run sweeps
// side by side, pass private instances instead.
var Gauges = new(metrics.Gauges)

// Point is one x-axis position of a figure: a problem size and the
// instance generator for it.
type Point struct {
	// N is the workload size parameter (task grid edge, tile count...).
	N int
	// Build generates the instance.
	Build func() *taskgraph.Instance
}

// Figure is one reproducible experiment.
type Figure struct {
	// ID names the experiment after the paper figure(s) it regenerates,
	// e.g. "fig3+4" (the same runs produce both the throughput and the
	// transfer figure).
	ID string
	// Title restates the paper caption.
	Title string
	// Metrics lists what the paper plots from these runs: "gflops",
	// "transfers", or both.
	Metrics []string
	// Platform is the simulated machine.
	Platform platform.Platform
	// NsPerOp is the scheduler cost model conversion; 0 reproduces the
	// paper's pure-simulation figures that ignore scheduling time.
	NsPerOp float64
	// Points is the working-set sweep.
	Points []Point
	// Strategies are the compared schedulers, in legend order.
	Strategies []sched.Strategy
	// Seed feeds every run.
	Seed int64
}

// RunOptions trims or instruments an experiment run.
type RunOptions struct {
	// MaxN skips sweep points with N above this bound (0 = no bound).
	// Benchmarks use it to keep -bench runs short.
	MaxN int
	// Quick keeps only every third point plus the last.
	Quick bool
	// Progress, when non-nil, receives one line per completed
	// (point, strategy) row, prefixed with "[done/total eta ...]". With
	// Workers > 1 the lines arrive in completion order rather than sweep
	// order, but each line is written whole (they are serialized through
	// a single goroutine).
	Progress io.Writer
	// TelemetryOut, when non-nil, receives one JSON line per
	// (point, strategy) cell in sweep order after the sweep completes:
	// the metrics.Row fields joined with the engine telemetry and the
	// scheduler decision digest of the cell's first replica (see
	// EXPERIMENTS.md for the schema).
	TelemetryOut io.Writer
	// OnCell, when non-nil, receives the same per-cell records as
	// TelemetryOut, typed instead of serialized, in sweep order after
	// the sweep completes. The baseline tooling uses it to build
	// BENCH_*.json entries without round-tripping through JSON.
	OnCell func(CellTelemetry)
	// Gauges overrides the live sweep counters Run updates (nil uses the
	// package-level Gauges instance that paperbench publishes).
	Gauges *metrics.Gauges
	// CheckInvariants validates every trace (slower).
	CheckInvariants bool
	// Replicas averages each (point, strategy) cell over this many
	// seeds (the paper averages 10 iterations per result). 0 or 1 runs
	// a single seed.
	Replicas int
	// Workers bounds how many (point, strategy, replica) cells run
	// concurrently. 0 selects runtime.GOMAXPROCS(0); 1 runs strictly
	// sequentially. Every cell is an independent deterministic
	// simulation on its own Instance, and rows are assembled in sweep
	// order, so the result is identical for any worker count.
	Workers int
	// Context, when non-nil, cancels the sweep: in-flight simulations
	// stop at the next engine poll and every unfinished cell is reported
	// as a CellError inside the returned SweepError. Rows already
	// completed are still returned and still reach TelemetryOut/OnCell.
	Context context.Context
	// Faults injects the same fault plan into every cell of the sweep
	// (each cell still simulates it independently and deterministically).
	// Nil (or an empty plan) reproduces the fault-free sweep exactly.
	Faults *fault.Plan
	// Checkpoint, when non-nil, makes the sweep crash-safe: rows already
	// journaled are restored instead of recomputed, and every freshly
	// completed row is appended to the journal (fsync'd) before the sweep
	// moves on. Because each cell is an independent deterministic
	// simulation, a killed-and-resumed sweep produces output
	// byte-identical to an uninterrupted one.
	Checkpoint *Checkpoint
	// Speed, when non-nil, accumulates the raw engine throughput of the
	// sweep: simulated events, wall-clock time, and cell count of the
	// cells actually computed (checkpoint-restored rows contribute
	// nothing). The fields are added to, not overwritten, so one
	// SweepSpeed can total several figures.
	Speed *SweepSpeed
}

// SweepSpeed totals the engine throughput of one or more sweeps; see
// RunOptions.Speed. EventsPerSec derives the headline rate.
type SweepSpeed struct {
	// Events is the number of discrete events the computed cells
	// processed.
	Events int64
	// Wall is the wall-clock duration of the compute phases.
	Wall time.Duration
	// Cells is the number of (point, strategy, replica) cells simulated.
	Cells int
}

// EventsPerSec returns the aggregate simulation rate, 0 before any work.
func (s *SweepSpeed) EventsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Events) / s.Wall.Seconds()
}

// CellError reports the failure of one (point, strategy, replica) cell
// of a sweep: which cell, what went wrong, and — for panics — the stack
// of the worker goroutine that caught it. A failed cell fails only its
// own row; the other rows of the sweep are unaffected.
type CellError struct {
	// Figure, Workload, Strategy and Replica identify the cell.
	Figure   string
	Workload string
	Strategy string
	Replica  int
	// Err is the failure: a simulation error, ctx.Err() for cells
	// cancelled or never started, or "panic: ..." for panics.
	Err error
	// Stack is the worker stack at recover time; nil unless the cell
	// panicked.
	Stack []byte
}

// Error renders the cell key with the failure.
func (e *CellError) Error() string {
	return fmt.Sprintf("%s: %s on %s (replica %d): %v",
		e.Figure, e.Strategy, e.Workload, e.Replica, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// SweepError aggregates every failed cell of a sweep. Run returns it
// alongside the rows that did complete, so a panicking or cancelled cell
// costs its own row, not the whole sweep.
type SweepError struct {
	// Cells lists the failures in job order (sweep order, replicas of a
	// cell in seed order).
	Cells []*CellError
	// Total is the number of (point, strategy, replica) jobs attempted.
	Total int
}

// Error summarizes the failures, one line per failed cell (panic stacks
// are elided here; read them from Cells).
func (e *SweepError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "expr: %d of %d cells failed:", len(e.Cells), e.Total)
	for _, c := range e.Cells {
		b.WriteString("\n  ")
		b.WriteString(c.Error())
	}
	return b.String()
}

// Unwrap exposes the individual cell errors to errors.Is/As.
func (e *SweepError) Unwrap() []error {
	errs := make([]error, len(e.Cells))
	for i, c := range e.Cells {
		errs[i] = c
	}
	return errs
}

// Run executes the experiment and returns one row per (point, strategy),
// in sweep order (points in sweep order, strategies in legend order).
//
// The (point, strategy, replica) cells are independent simulations; Run
// fans them across Workers goroutines. Each worker builds its own
// Instance for its cell, so no mutable state is shared between cells:
// results are byte-identical for any worker count (see
// TestWorkersConformance).
func (f *Figure) Run(opt RunOptions) ([]metrics.Row, error) {
	points := f.Points
	if opt.Quick {
		var kept []Point
		for i, p := range points {
			if i%3 == 0 || i == len(points)-1 {
				kept = append(kept, p)
			}
		}
		points = kept
	}
	reps := opt.Replicas
	if reps < 1 {
		reps = 1
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// One row per (point, strategy) cell, in sweep order.
	type rowSpec struct {
		point Point
		strat sched.Strategy
	}
	var specs []rowSpec
	for _, p := range points {
		if opt.MaxN > 0 && p.N > opt.MaxN {
			continue
		}
		for _, strat := range f.Strategies {
			specs = append(specs, rowSpec{point: p, strat: strat})
		}
	}
	if len(specs) == 0 {
		return nil, nil
	}
	numJobs := len(specs) * reps
	if workers > numJobs {
		workers = numJobs
	}

	gauges := opt.Gauges
	if gauges == nil {
		gauges = Gauges
	}
	// Decision digests are only worth the recording overhead when someone
	// will see them; recording is pure observation either way (guarded
	// recorder calls, deterministic results — TestDigestsDoNotPerturbRows).
	// Checkpointed sweeps always record them so the journal can replay
	// telemetry output regardless of which flags the resuming run adds.
	wantDigests := opt.TelemetryOut != nil || opt.OnCell != nil || opt.Checkpoint != nil

	rows := make([]metrics.Row, len(specs))
	rowOK := make([]bool, len(specs))
	cells := make([][]metrics.Row, len(specs)) // per-replica results
	remaining := make([]int32, len(specs))     // replicas left per row
	tels := make([]*sim.Telemetry, len(specs)) // first replica's telemetry
	digs := make([]*sched.DecisionDigest, len(specs))
	fstats := make([]*sim.FaultStats, len(specs))
	crits := make([]*critpath.Summary, len(specs)) // first replica's attribution
	for i := range cells {
		cells[i] = make([]metrics.Row, reps)
		remaining[i] = int32(reps)
	}
	cellErrs := make([]*CellError, numJobs)
	var rowsDone atomic.Int32
	started := time.Now()

	// Restore journaled rows before any work is dispatched: a resumed
	// sweep only computes the cells the interrupted run never finished.
	ckpt := opt.Checkpoint
	var restored []bool
	dispatchable := numJobs
	if ckpt != nil {
		restored = make([]bool, len(specs))
		for ri, sp := range specs {
			cell, ok := ckpt.Lookup(checkpointKey(f.ID, sp.point.N, sp.strat.Label))
			if !ok {
				continue
			}
			rows[ri] = cell.Row
			rowOK[ri] = true
			tels[ri] = cell.Telemetry
			digs[ri] = cell.Decisions
			fstats[ri] = cell.Faults
			crits[ri] = cell.CritPath
			restored[ri] = true
			dispatchable -= reps
			rowsDone.Add(1)
		}
		if n := numJobs - dispatchable; n > 0 && opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "%s: resumed %d/%d rows from %s\n",
				f.ID, n/reps, len(specs), ckpt.Path())
		}
		if workers > dispatchable && dispatchable > 0 {
			workers = dispatchable
		}
	}

	// Progress lines from concurrent workers are serialized through one
	// channel so each line reaches the writer whole.
	var progCh chan string
	var progWG sync.WaitGroup
	if opt.Progress != nil {
		progCh = make(chan string, workers)
		progWG.Add(1)
		go func() {
			defer progWG.Done()
			for line := range progCh {
				io.WriteString(opt.Progress, line)
			}
		}()
	}

	// runJob executes one (point, strategy, replica) cell. Panics are
	// confined to the cell: the recover below turns them into a CellError
	// carrying the worker stack, and only that cell's row is lost.
	var simEvents atomic.Int64 // events processed by computed cells
	var simCells atomic.Int32
	runJob := func(j int, sc *sim.Scratch) (cellErr *CellError) {
		ri, rep := j/reps, j%reps
		sp := specs[ri]
		fail := func(workload string, err error, stack []byte) *CellError {
			return &CellError{Figure: f.ID, Workload: workload,
				Strategy: sp.strat.Label, Replica: rep, Err: err, Stack: stack}
		}
		defer func() {
			if r := recover(); r != nil {
				// The panic may have come from Build itself, so identify
				// the workload by its sweep position rather than its name.
				cellErr = fail(fmt.Sprintf("point N=%d", sp.point.N),
					fmt.Errorf("panic: %v", r), debug.Stack())
			}
		}()
		if opt.Context != nil && opt.Context.Err() != nil {
			return fail("(not started)", opt.Context.Err(), nil)
		}
		inst := sp.point.Build()
		strat := sp.strat
		var digRec *sched.DigestRecorder
		if wantDigests && rep == 0 {
			digRec = new(sched.DigestRecorder)
			strat = strat.WithRecorder(digRec)
		}
		// The first replica of an instrumented sweep records its trace so
		// the cell carries its makespan attribution alongside telemetry
		// and decision digests. The trace is dropped again right after
		// the walk; only the compact Summary is retained.
		trace := wantDigests && rep == 0
		gauges.SimsRunning.Add(1)
		res, err := runOne(opt.Context, inst, strat, f.Platform, f.NsPerOp,
			f.Seed+int64(rep), opt.CheckInvariants, opt.Faults, sc, trace)
		gauges.SimsRunning.Add(-1)
		if err != nil {
			return fail(inst.Name(), err, nil)
		}
		cells[ri][rep] = metrics.FromResult(f.ID, res)
		gauges.SimEvents.Add(res.Events)
		simEvents.Add(res.Events)
		simCells.Add(1)
		if rep == 0 {
			tels[ri] = res.Telemetry
			fstats[ri] = res.Faults
			if digRec != nil {
				digs[ri] = digRec.Digest()
			}
			if trace {
				cp, err := critpath.Analyze(inst, res)
				if err != nil {
					return fail(inst.Name(), fmt.Errorf("critpath: %w", err), nil)
				}
				crits[ri] = critpath.Summarize(inst, cp)
				res.Trace = nil
			}
		}
		return nil
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One Scratch per worker: cells on this goroutine recycle the
			// engine's transient state. Results stay byte-identical
			// (TestWorkersConformance runs Workers 1 vs 8).
			sc := sim.NewScratch()
			for j := range jobs {
				ri := j / reps
				sp := specs[ri]
				cellErr := runJob(j, sc)
				cellErrs[j] = cellErr
				if atomic.AddInt32(&remaining[ri], -1) != 0 {
					continue
				}
				// Last replica of this row. The atomic decrement orders the
				// sibling replicas' writes (cells, cellErrs) before this
				// read, so scanning them here is race-free.
				rowFailed := false
				for r := 0; r < reps; r++ {
					if cellErrs[ri*reps+r] != nil {
						rowFailed = true
					}
				}
				done := rowsDone.Add(1)
				if rowFailed {
					if progCh != nil {
						progCh <- fmt.Sprintf("[%d/%d eta %v] %s  %-28s FAILED (see sweep error)\n",
							done, len(specs), sweepETA(started, int(done), len(specs)), f.ID, sp.strat.Label)
					}
					continue
				}
				row, err := aggregateReplicas(cells[ri])
				if err != nil {
					cellErrs[ri*reps] = &CellError{Figure: f.ID, Workload: row.Workload,
						Strategy: sp.strat.Label, Replica: 0, Err: err}
					continue
				}
				rows[ri] = row
				rowOK[ri] = true
				gauges.CellsCompleted.Add(1)
				if ckpt != nil {
					// Journal the finished row before reporting progress:
					// once the line is fsync'd a crash cannot lose it.
					ckpt.Add(checkpointKey(f.ID, sp.point.N, sp.strat.Label),
						CellTelemetry{Row: row, Telemetry: tels[ri], Decisions: digs[ri],
							Faults: fstats[ri], CritPath: crits[ri]})
				}
				if progCh != nil {
					progCh <- fmt.Sprintf("[%d/%d eta %v] %s  ws=%7.1f MB  %-28s %8.0f GFlop/s  %9.1f MB moved\n",
						done, len(specs), sweepETA(started, int(done), len(specs)),
						f.ID, row.WorkingSetMB, sp.strat.Label, row.GFlops, row.TransferredMB)
				}
			}
		}()
	}
	for j := 0; j < numJobs; j++ {
		if restored != nil && restored[j/reps] {
			continue
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	if opt.Speed != nil {
		opt.Speed.Events += simEvents.Load()
		opt.Speed.Wall += time.Since(started)
		opt.Speed.Cells += int(simCells.Load())
	}
	if progCh != nil {
		close(progCh)
		progWG.Wait()
	}

	var sweepErr *SweepError
	for _, ce := range cellErrs {
		if ce != nil {
			if sweepErr == nil {
				sweepErr = &SweepError{Total: dispatchable}
			}
			sweepErr.Cells = append(sweepErr.Cells, ce)
		}
	}

	// Completed rows are emitted (and returned) even when some cells
	// failed, so an interrupted or partially broken sweep still flushes
	// everything it finished.
	out := make([]metrics.Row, 0, len(rows))
	var enc *json.Encoder
	if opt.TelemetryOut != nil {
		enc = json.NewEncoder(opt.TelemetryOut)
	}
	for i := range rows {
		if !rowOK[i] {
			continue
		}
		out = append(out, rows[i])
		if enc == nil && opt.OnCell == nil {
			continue
		}
		cell := CellTelemetry{Row: rows[i], Telemetry: tels[i], Decisions: digs[i],
			Faults: fstats[i], CritPath: crits[i]}
		if enc != nil {
			if err := enc.Encode(cell); err != nil {
				return out, fmt.Errorf("%s: telemetry out: %w", f.ID, err)
			}
			// Make each line durable on its own: a SIGKILL between cells
			// then truncates the stream at a line boundary, leaving valid
			// JSONL instead of a torn tail.
			flushLine(opt.TelemetryOut)
		}
		if opt.OnCell != nil {
			opt.OnCell(cell)
		}
	}
	if ckpt != nil {
		if err := ckpt.Err(); err != nil {
			// A journal that stopped persisting (full disk, yanked volume)
			// must fail the sweep: the rows are fine, but the crash-safety
			// contract is not.
			return out, errors.Join(err, errOrNil(sweepErr))
		}
	}
	if sweepErr != nil {
		return out, sweepErr
	}
	return out, nil
}

// errOrNil converts a possibly-nil *SweepError into a plain error
// without the typed-nil-in-interface trap.
func errOrNil(e *SweepError) error {
	if e == nil {
		return nil
	}
	return e
}

// flushLine pushes a just-encoded telemetry line as far toward the disk
// as the writer allows: through Flush for buffered writers, through Sync
// (fsync) for files. Writers offering neither are already unbuffered.
func flushLine(w io.Writer) {
	switch t := w.(type) {
	case interface{ Flush() error }:
		t.Flush()
	case interface{ Sync() error }:
		t.Sync()
	}
}

// CellTelemetry is one line of the telemetry JSON stream: the figure row
// (averaged over replicas) joined with the engine telemetry and the
// scheduler decision digest of the cell's first replica (the seed the
// single-seed sweep would run). Decisions is nil on runs that did not
// request cell records and all-zero for strategies that report no
// decisions (e.g. EAGER, DMDAR).
type CellTelemetry struct {
	metrics.Row
	Telemetry *sim.Telemetry        `json:"telemetry"`
	Decisions *sched.DecisionDigest `json:"decisions,omitempty"`
	// Faults carries the first replica's fault/recovery counters; nil on
	// fault-free runs, so fault-free telemetry lines are byte-identical
	// to those of builds without fault injection.
	Faults *sim.FaultStats `json:"faults,omitempty"`
	// CritPath is the makespan attribution of the first replica: the
	// critical-path blame totals, counterfactual lower bounds, and top
	// blamed tasks/data reconstructed from that run's trace (see
	// internal/critpath).
	CritPath *critpath.Summary `json:"critpath,omitempty"`
}

// sweepETA estimates the remaining sweep duration from the average cell
// time so far, rounded coarsely for display.
func sweepETA(started time.Time, done, total int) time.Duration {
	if done <= 0 || done >= total {
		return 0
	}
	elapsed := time.Since(started)
	eta := elapsed / time.Duration(done) * time.Duration(total-done)
	return eta.Round(100 * time.Millisecond)
}

// aggregateReplicas folds the per-seed rows of one (point, strategy)
// cell into the figure row: metric fields are averaged, static fields
// (workload identity, working set, GPU count) must agree across seeds.
// Loads and Evictions keep the historical integer average.
func aggregateReplicas(reps []metrics.Row) (metrics.Row, error) {
	row := reps[0]
	for _, one := range reps[1:] {
		if one.Figure != row.Figure || one.Workload != row.Workload ||
			one.WorkingSetMB != row.WorkingSetMB ||
			one.Scheduler != row.Scheduler || one.GPUs != row.GPUs {
			return metrics.Row{}, fmt.Errorf(
				"expr: replica rows disagree on static fields: %+v vs %+v", row, one)
		}
		row.GFlops += one.GFlops
		row.TransferredMB += one.TransferredMB
		row.MakespanMS += one.MakespanMS
		row.StaticMS += one.StaticMS
		row.DynamicMS += one.DynamicMS
		row.IdleMS += one.IdleMS
		row.ReloadedMB += one.ReloadedMB
		row.Loads += one.Loads
		row.Evictions += one.Evictions
	}
	if n := len(reps); n > 1 {
		row.GFlops /= float64(n)
		row.TransferredMB /= float64(n)
		row.MakespanMS /= float64(n)
		row.StaticMS /= float64(n)
		row.DynamicMS /= float64(n)
		row.IdleMS /= float64(n)
		row.ReloadedMB /= float64(n)
		row.Loads /= n
		row.Evictions /= n
	}
	return row, nil
}

// RunOne executes a single (instance, strategy) pair on plat. Telemetry
// is always collected: it is pure observation (the simulated schedule
// and all other Result fields are unchanged, see
// TestTelemetryDoesNotPerturbResults), and it feeds the IdleMS and
// ReloadedMB columns of every row.
func RunOne(inst *taskgraph.Instance, strat sched.Strategy, plat platform.Platform, nsPerOp float64, seed int64, check bool) (*sim.Result, error) {
	return runOne(nil, inst, strat, plat, nsPerOp, seed, check, nil, nil, false)
}

// RunOneFaulty is RunOne with fault injection and cancellation: faults
// (nil or empty for none) is the injected fault plan, and ctx (nil for
// none) stops the simulation at the next engine poll when cancelled.
func RunOneFaulty(ctx context.Context, inst *taskgraph.Instance, strat sched.Strategy, plat platform.Platform, nsPerOp float64, seed int64, check bool, faults *fault.Plan) (*sim.Result, error) {
	return runOne(ctx, inst, strat, plat, nsPerOp, seed, check, faults, nil, false)
}

// RunOneTraced is RunOneFaulty with trace recording: Result.Trace is
// retained so the caller can run critical-path attribution
// (critpath.Analyze) or export a Chrome trace. The simulated schedule is
// unchanged — recording is pure observation.
func RunOneTraced(ctx context.Context, inst *taskgraph.Instance, strat sched.Strategy, plat platform.Platform, nsPerOp float64, seed int64, check bool, faults *fault.Plan) (*sim.Result, error) {
	return runOne(ctx, inst, strat, plat, nsPerOp, seed, check, faults, nil, true)
}

func runOne(ctx context.Context, inst *taskgraph.Instance, strat sched.Strategy, plat platform.Platform, nsPerOp float64, seed int64, check bool, faults *fault.Plan, sc *sim.Scratch, trace bool) (*sim.Result, error) {
	s, pol := strat.New()
	var ev sim.EvictionPolicy = pol
	if ev == nil {
		ev = memory.NewLRU()
	}
	return sim.Run(inst, sim.Config{
		Platform:        plat,
		Scheduler:       s,
		Eviction:        ev,
		Seed:            seed,
		NsPerOp:         nsPerOp,
		Telemetry:       true,
		RecordTrace:     trace,
		CheckInvariants: check,
		Faults:          faults,
		Context:         ctx,
		Scratch:         sc,
	})
}

// RunCell executes one fully instrumented cell for deep-dive tooling
// (paperbench -trace-cell): the trace is retained and validated, the
// telemetry cross-checked against it, and probe (optional) streams every
// event. faults (nil or empty for none) injects a fault plan into the
// cell. Attach a decision recorder via strat.WithRecorder beforehand.
func RunCell(inst *taskgraph.Instance, strat sched.Strategy, plat platform.Platform, nsPerOp float64, seed int64, probe sim.Probe, faults *fault.Plan) (*sim.Result, error) {
	s, pol := strat.New()
	var ev sim.EvictionPolicy = pol
	if ev == nil {
		ev = memory.NewLRU()
	}
	return sim.Run(inst, sim.Config{
		Platform:        plat,
		Scheduler:       s,
		Eviction:        ev,
		Seed:            seed,
		NsPerOp:         nsPerOp,
		Telemetry:       true,
		RecordTrace:     true,
		CheckInvariants: true,
		Probe:           probe,
		Faults:          faults,
	})
}

// RefLines describes the figure's reference lines, mirroring the paper's
// dotted verticals and horizontals.
func (f *Figure) RefLines() string {
	p := f.Platform
	cum := float64(p.CumulatedMemory()) / platform.MB
	return fmt.Sprintf(
		"GFlop/s max = %.0f; A and B fit in cumulated memory at ws = %.0f MB; B fits at ws = %.0f MB",
		p.PeakGFlops(), cum, 2*cum)
}
