package expr

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"memsched/internal/fault"
	"memsched/internal/platform"
	"memsched/internal/sched"
	"memsched/internal/workload"
)

// DegradationOptions configures the fault-degradation sweep: one fixed
// workload, a set of strategies, and a sweep over transient transfer
// failure rates (optionally combined with fixed dropouts), measuring how
// gracefully each strategy's throughput degrades as the machine gets
// less reliable.
type DegradationOptions struct {
	// Rates are the swept per-attempt transfer failure rates. A 0 rate
	// (the fault-free baseline every other rate is normalized against)
	// is prepended when absent. Nil selects DefaultDegradationRates.
	Rates []float64
	// MaxRetries and Backoff parameterize the transient failures
	// (0 selects the fault package defaults).
	MaxRetries int
	Backoff    time.Duration
	// Dropouts, when non-empty, additionally injects the same permanent
	// GPU losses into every faulty cell (rate 0 stays fault-free).
	Dropouts []fault.Dropout
	// N is the 2D-product grid edge (0 selects 30: past both memory
	// thresholds on the default platform, small enough for CI).
	N int
	// Platform is the simulated machine (zero value selects V100(2)).
	Platform platform.Platform
	// Strategies are the compared schedulers (nil selects a default
	// panel of one strategy per family).
	Strategies []sched.Strategy
	// Seed feeds the simulation and (xored by the engine) the fault
	// draws.
	Seed int64
	// Workers bounds concurrent cells (0 = GOMAXPROCS). Cells are
	// independent deterministic simulations, so results are identical
	// for any worker count.
	Workers int
	// Context, when non-nil, cancels the sweep like RunOptions.Context.
	Context context.Context
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// DefaultDegradationRates sweeps from fault-free to one transfer in
// three failing per attempt.
var DefaultDegradationRates = []float64{0, 0.01, 0.05, 0.1, 0.2, 0.3}

// DegradationRow is one cell of the degradation sweep: one strategy at
// one failure rate.
type DegradationRow struct {
	// Workload and Scheduler identify the cell.
	Workload  string `json:"workload"`
	Scheduler string `json:"scheduler"`
	// Rate is the per-attempt transfer failure rate of this cell.
	Rate float64 `json:"rate"`
	// GFlops and MakespanMS are the cell's absolute results.
	GFlops     float64 `json:"gflops"`
	MakespanMS float64 `json:"makespan_ms"`
	// RelativeGFlops is GFlops divided by the same strategy's rate-0
	// (fault-free) GFlops: 1.0 means no degradation.
	RelativeGFlops float64 `json:"relative_gflops"`
	// TransferRetries and BackoffMS quantify the injected transient
	// faults; KilledTasks, RequeuedTasks and RecoveryMS the dropout
	// recovery (all zero at rate 0 with no dropouts).
	TransferRetries int     `json:"transfer_retries"`
	BackoffMS       float64 `json:"backoff_ms"`
	KilledTasks     int     `json:"killed_tasks"`
	RequeuedTasks   int     `json:"requeued_tasks"`
	RecoveryMS      float64 `json:"recovery_ms"`
}

// RunDegradation executes the degradation sweep and returns one row per
// (strategy, rate), strategies in panel order and rates ascending.
// Failed cells are reported through a *SweepError alongside the rows
// that did complete, like Figure.Run.
func RunDegradation(opt DegradationOptions) ([]DegradationRow, error) {
	rates := append([]float64(nil), opt.Rates...)
	if len(rates) == 0 {
		rates = append(rates, DefaultDegradationRates...)
	}
	sort.Float64s(rates)
	if rates[0] != 0 {
		rates = append([]float64{0}, rates...)
	}
	maxRetries := opt.MaxRetries
	if maxRetries == 0 {
		maxRetries = fault.DefaultMaxRetries
	}
	backoff := opt.Backoff
	if backoff == 0 {
		// Deliberately harsher than fault.DefaultBackoff (20µs): at the
		// parse default a full retry burst vanishes inside a 250ms
		// makespan and every curve reads 100%. 1ms per first retry makes
		// the degradation measurable without dominating the schedule.
		backoff = time.Millisecond
	}
	n := opt.N
	if n == 0 {
		n = 30
	}
	plat := opt.Platform
	if plat.NumGPUs == 0 {
		plat = platform.V100(2)
	}
	strategies := opt.Strategies
	if strategies == nil {
		strategies = []sched.Strategy{
			sched.EagerStrategy(),
			sched.DMDARStrategy(),
			sched.DARTSStrategy(sched.DARTSOptions{LUF: true}),
			sched.MHFPStrategy(true),
			sched.WorkStealingStrategy(),
		}
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	numJobs := len(strategies) * len(rates)
	if workers > numJobs {
		workers = numJobs
	}

	rows := make([]DegradationRow, numJobs)
	rowOK := make([]bool, numJobs)
	cellErrs := make([]*CellError, numJobs)
	var progMu sync.Mutex

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				si, ri := j/len(rates), j%len(rates)
				strat, rate := strategies[si], rates[ri]
				row, cellErr := runDegradationCell(opt.Context, strat, rate, maxRetries,
					backoff, opt.Dropouts, n, plat, opt.Seed)
				if cellErr != nil {
					cellErrs[j] = cellErr
					continue
				}
				rows[j], rowOK[j] = row, true
				if opt.Progress != nil {
					progMu.Lock()
					fmt.Fprintf(opt.Progress, "degradation  rate=%-5g %-28s %8.0f GFlop/s  %6d retries\n",
						rate, strat.Label, row.GFlops, row.TransferRetries)
					progMu.Unlock()
				}
			}
		}()
	}
	for j := 0; j < numJobs; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()

	// Normalize each strategy against its own fault-free baseline
	// (rates[0] == 0 by construction) and drop rows whose baseline or
	// self failed.
	var out []DegradationRow
	var sweepErr *SweepError
	for _, ce := range cellErrs {
		if ce != nil {
			if sweepErr == nil {
				sweepErr = &SweepError{Total: numJobs}
			}
			sweepErr.Cells = append(sweepErr.Cells, ce)
		}
	}
	for si := range strategies {
		base := rows[si*len(rates)]
		for ri := range rates {
			j := si*len(rates) + ri
			if !rowOK[j] {
				continue
			}
			row := rows[j]
			if rowOK[si*len(rates)] && base.GFlops > 0 {
				row.RelativeGFlops = row.GFlops / base.GFlops
			}
			out = append(out, row)
		}
	}
	if sweepErr != nil {
		return out, sweepErr
	}
	return out, nil
}

// runDegradationCell simulates one (strategy, rate) cell, with the same
// panic confinement as Figure.Run.
func runDegradationCell(ctx context.Context, strat sched.Strategy, rate float64, maxRetries int, backoff time.Duration, drops []fault.Dropout, n int, plat platform.Platform, seed int64) (row DegradationRow, cellErr *CellError) {
	fail := func(err error, stack []byte) *CellError {
		return &CellError{Figure: "degradation", Workload: fmt.Sprintf("matmul2d-%d", n),
			Strategy: strat.Label, Err: err, Stack: stack}
	}
	defer func() {
		if r := recover(); r != nil {
			cellErr = fail(fmt.Errorf("panic at rate %g: %v", rate, r), debug.Stack())
		}
	}()
	if ctx != nil && ctx.Err() != nil {
		return row, fail(ctx.Err(), nil)
	}
	var plan *fault.Plan
	if rate > 0 {
		plan = &fault.Plan{
			Seed:      seed,
			Dropouts:  drops,
			Transient: &fault.Transient{Rate: rate, MaxRetries: maxRetries, Backoff: backoff},
		}
	}
	inst := workload.Matmul2D(n)
	res, err := runOne(ctx, inst, strat, plat, 0, seed, true, plan, nil, false, nil)
	if err != nil {
		return row, fail(fmt.Errorf("rate %g: %w", rate, err), nil)
	}
	row = DegradationRow{
		Workload:   inst.Name(),
		Scheduler:  res.SchedulerName,
		Rate:       rate,
		GFlops:     res.GFlops,
		MakespanMS: float64(res.Makespan.Microseconds()) / 1000,
	}
	if fs := res.Faults; fs != nil {
		row.TransferRetries = fs.TransferRetries
		row.BackoffMS = float64(fs.BackoffTime.Microseconds()) / 1000
		row.KilledTasks = fs.KilledTasks
		row.RequeuedTasks = fs.RequeuedTasks
		row.RecoveryMS = float64(fs.RecoveryTime.Microseconds()) / 1000
	}
	return row, nil
}

// WriteDegradationCSV writes the degradation rows with a header, in the
// same spirit as metrics.WriteCSV.
func WriteDegradationCSV(w io.Writer, rows []DegradationRow) error {
	cw := csv.NewWriter(w)
	header := []string{"workload", "scheduler", "rate", "gflops", "makespan_ms",
		"relative_gflops", "transfer_retries", "backoff_ms",
		"killed_tasks", "requeued_tasks", "recovery_ms"}
	if err := cw.Write(header); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	for _, r := range rows {
		rec := []string{
			r.Workload, r.Scheduler,
			strconv.FormatFloat(r.Rate, 'g', -1, 64),
			f(r.GFlops), f(r.MakespanMS), f(r.RelativeGFlops),
			strconv.Itoa(r.TransferRetries), f(r.BackoffMS),
			strconv.Itoa(r.KilledTasks), strconv.Itoa(r.RequeuedTasks), f(r.RecoveryMS),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FormatDegradationTable renders the rows as an aligned text table, one
// block per strategy with rates ascending.
func FormatDegradationTable(rows []DegradationRow) string {
	var b []byte
	b = append(b, fmt.Sprintf("%-28s %6s %10s %9s %9s %8s %7s %7s %9s\n",
		"scheduler", "rate", "GFlop/s", "relative", "makespan", "retries", "killed", "requeue", "recovery")...)
	for _, r := range rows {
		b = append(b, fmt.Sprintf("%-28s %6g %10.0f %8.0f%% %7.1fms %8d %7d %7d %7.1fms\n",
			r.Scheduler, r.Rate, r.GFlops, 100*r.RelativeGFlops, r.MakespanMS,
			r.TransferRetries, r.KilledTasks, r.RequeuedTasks, r.RecoveryMS)...)
	}
	return string(b)
}
