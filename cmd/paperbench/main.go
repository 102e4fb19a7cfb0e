// Command paperbench regenerates the data series of every figure of the
// paper's evaluation (Figures 3 to 13). For each experiment it prints one
// aligned table per plotted metric, writes results/<figure>.csv, and
// reports the paper's headline comparisons (e.g. average DARTS+LUF gain
// over DMDAR).
//
// Usage:
//
//	paperbench                  # all figures, default sweeps
//	paperbench -fig fig9        # one figure
//	paperbench -quick           # a third of the sweep points
//	paperbench -maxn 100        # cap workload sizes
//	paperbench -out results     # output directory for CSV files
//	paperbench -workers 8       # fan runs across 8 workers
//	paperbench -cpuprofile p.out  # write a pprof CPU profile
//	paperbench -memprofile m.out  # write a pprof heap profile on exit
//	paperbench -telemetry       # also write <fig>_telemetry.jsonl per figure
//	paperbench -trace-cell fig3:5:DARTS+LUF  # deep-dive one cell
//	paperbench -critpath fig3:5:DARTS+LUF    # makespan attribution: blame report + highlighted Chrome trace
//	paperbench -version         # print the build version and exit
//	paperbench -http :6060      # expvar + pprof debug endpoint
//	paperbench -baseline-write  # record BENCH_<figure>.json reference cells
//	paperbench -baseline-check  # diff the run against BENCH_*.json; exit 1 on regression
//	paperbench -faults drop=1@5ms,transient=0.05  # inject a fault plan into every cell
//	paperbench -degradation     # sweep GFlop/s vs transfer failure rate
//	paperbench -resume sweep.ckpt  # crash-safe sweep: journal cells, skip completed ones on rerun
//	paperbench compare old.jsonl new.jsonl  # diff two -telemetry captures
//
// SIGINT cancels the sweep: in-flight simulations stop, completed rows
// are still printed, written to CSV and flushed to the telemetry JSONL /
// BENCH baselines, and the process exits non-zero.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"memsched/internal/baseline"
	"memsched/internal/buildinfo"
	"memsched/internal/critpath"
	"memsched/internal/expr"
	"memsched/internal/fault"
	"memsched/internal/hypergraph"
	"memsched/internal/metrics"
	"memsched/internal/sched"
	"memsched/internal/sim"
)

func main() { os.Exit(run()) }

// run is the real main; returning instead of os.Exit lets the profile
// defers fire even when a figure fails.
func run() int {
	var (
		fig        = flag.String("fig", "", "run only this figure (fig3...fig13); empty runs all")
		quick      = flag.Bool("quick", false, "run a reduced sweep")
		maxN       = flag.Int("maxn", 0, "skip sweep points with N above this bound")
		outDir     = flag.String("out", "results", "directory for CSV output")
		verbose    = flag.Bool("v", false, "print one line per run")
		replicas   = flag.Int("replicas", 1, "seeds averaged per cell (the paper uses 10)")
		plot       = flag.Bool("plot", false, "render each figure as an ASCII chart as well")
		ablations  = flag.Bool("ablations", false, "run the ablation studies instead of the paper figures")
		workers    = flag.Int("workers", 0, "concurrent simulation runs (0 = GOMAXPROCS); figures also overlap up to this bound")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		telemetry  = flag.Bool("telemetry", false, "write one JSON line per cell to <out>/<figure>_telemetry.jsonl")
		traceCell  = flag.String("trace-cell", "", "deep-dive one cell (figure:point:strategy): Chrome trace, decision log, telemetry")
		critCell   = flag.String("critpath", "", "makespan attribution for one cell (figure:point:strategy): blame report on stdout, highlighted Chrome trace under -out")
		version    = flag.Bool("version", false, "print the build version and exit")
		httpAddr   = flag.String("http", "", "serve expvar counters and pprof on this address (e.g. :6060)")
		faultSpec  = flag.String("faults", "", "inject a fault plan into every cell: seed=N,drop=GPU@TIME,transient=RATE[:RETRIES[:BACKOFF]],pressure=GPU@START+DURATION:BYTES")
		degrade    = flag.Bool("degradation", false, "run the fault-degradation sweep (GFlop/s vs transfer failure rate) instead of the figures")
		resume     = flag.String("resume", "", "crash-safe sweep journal (JSONL): completed cells are fsync'd here as the sweep runs, and a rerun against the same journal skips them, reproducing the uninterrupted output byte-identically")

		baselineWrite  = flag.Bool("baseline-write", false, "record the run's cells into BENCH_<figure>.json (merging into existing files)")
		baselineCheck  = flag.Bool("baseline-check", false, "diff the run against BENCH_<figure>.json; exit non-zero on regression")
		baselineDir    = flag.String("baseline-dir", ".", "directory holding the BENCH_*.json baselines")
		baselineTol    = flag.Float64("baseline-tol", -1, "uniform relative tolerance for -baseline-check and compare (0 = exact; negative = per-metric defaults)")
		baselineReport = flag.String("baseline-report", "", "also write the combined baseline diff report to this file")
	)
	flag.Parse()

	if *version {
		v, gv := buildinfo.Resolve()
		fmt.Printf("paperbench %s (%s)\n", v, gv)
		return 0
	}

	// The memsched_* gauge names are published on the global expvar
	// registry exactly once, here: library embedders and tests use
	// private metrics.Gauges instances instead (expvar panics on
	// duplicate names).
	expr.Gauges.Publish("memsched")

	plan, err := fault.ParseSpec(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if !plan.Empty() && (*baselineWrite || *baselineCheck) {
		fmt.Fprintln(os.Stderr, "-faults is incompatible with -baseline-write/-baseline-check: faulty cells must not enter or be diffed against the fault-free BENCH baselines")
		return 2
	}

	// SIGINT cancels the sweep; completed rows still flush below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	tol := baseline.DefaultTolerances()
	if *baselineTol >= 0 {
		tol = baseline.UniformTolerance(*baselineTol)
	}
	if args := flag.Args(); len(args) > 0 {
		if args[0] != "compare" || len(args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: paperbench compare <old_telemetry.jsonl> <new_telemetry.jsonl>")
			return 2
		}
		return runCompare(args[1], args[2], tol, os.Stdout)
	}

	if *memprofile != "" {
		path := *memprofile
		defer func() {
			mf, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer mf.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}
	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *httpAddr != "" {
		serveDebug(*httpAddr)
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// The sweep journal. Its header fingerprints every flag that shapes
	// cell results or output, so a resume under different flags is
	// rejected instead of replaying rows the current run would not have
	// produced. (-fig is deliberately absent: keys embed the figure ID,
	// so one journal backs any figure subset.)
	var ckpt *expr.Checkpoint
	if *resume != "" {
		if *degrade || *ablations || *traceCell != "" || *critCell != "" {
			fmt.Fprintln(os.Stderr, "-resume only applies to figure sweeps (not -degradation/-ablations/-trace-cell/-critpath)")
			return 2
		}
		// v2: journaled cells now embed critpath summaries; v1 journals
		// would replay rows without attribution, breaking byte-identical
		// resume output.
		cfg := fmt.Sprintf("v2 quick=%v maxn=%d replicas=%d faults=%s", *quick, *maxN, *replicas, plan)
		var err error
		if ckpt, err = expr.OpenCheckpoint(*resume, cfg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		defer ckpt.Close()
		if n := ckpt.Restored(); n > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d completed cells journaled in %s\n", n, *resume)
		}
	}

	if *traceCell != "" {
		if err := runTraceCell(*traceCell, *outDir, plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	if *critCell != "" {
		if err := runCritPath(*critCell, *outDir, plan); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	if *degrade {
		return runDegradation(ctx, *outDir, *workers, plan, *verbose)
	}
	if *ablations {
		return runAblations(*outDir)
	}
	figures := expr.AllFigures()
	if *fig != "" {
		f, err := expr.ByID(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		figures = []*expr.Figure{f}
	}

	// Figures overlap across a bounded pool so a slow multi-GPU sweep
	// does not leave the machine idle, while each figure also fans its
	// own (point, strategy, replica) cells via RunOptions.Workers.
	// Output is buffered per figure and printed in paper order.
	figWorkers := *workers
	if figWorkers <= 0 {
		figWorkers = runtime.GOMAXPROCS(0)
	}
	if figWorkers > len(figures) {
		figWorkers = len(figures)
	}
	var bl *baselineOps
	if *baselineWrite || *baselineCheck {
		bl = &baselineOps{write: *baselineWrite, check: *baselineCheck, dir: *baselineDir, tol: tol}
	}
	// The live status page rides on the -http debug endpoint: per-figure
	// progress and events/s next to expvar and pprof.
	var board *statusBoard
	if *httpAddr != "" {
		board = newStatusBoard(expr.Gauges, figures)
	}
	type figResult struct {
		out       bytes.Buffer
		err       error
		regressed bool
	}
	results := make([]figResult, len(figures))
	// One partition memo serves every figure, so instances that several
	// figures share (fig12 and fig13 sweep the same sparse2d graphs) are
	// partitioned once.
	memo := hypergraph.NewMemo()
	sem := make(chan struct{}, figWorkers)
	var wg sync.WaitGroup
	for i, f := range figures {
		wg.Add(1)
		go func(i int, f *expr.Figure) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i].regressed, results[i].err = runFigure(f, &results[i].out, *outDir, expr.RunOptions{
				Quick:      *quick,
				MaxN:       *maxN,
				Replicas:   *replicas,
				Workers:    *workers,
				Context:    ctx,
				Faults:     plan,
				Checkpoint: ckpt,
				Partitions: memo,
			}, *verbose, *plot, *telemetry, bl, board)
		}(i, f)
	}
	wg.Wait()

	failed, regressed := false, false
	for i, f := range figures {
		if results[i].err != nil {
			// A failed figure still prints what it completed: cell
			// failures (panics, cancellation) cost rows, not the sweep.
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.ID, results[i].err)
			failed = true
		}
		regressed = regressed || results[i].regressed
		os.Stdout.Write(results[i].out.Bytes())
	}
	if bl.active() && *baselineReport != "" {
		if err := bl.writeReport(*baselineReport); err != nil {
			fmt.Fprintln(os.Stderr, err)
			failed = true
		}
	}
	if failed {
		return 1
	}
	if regressed {
		fmt.Fprintln(os.Stderr, "baseline check failed: regressions beyond tolerance (see report above)")
		return 1
	}
	return 0
}

// serveDebug exposes the standard expvar and pprof handlers (both
// register on the default mux at init) plus a derived events/s gauge.
func serveDebug(addr string) {
	started := time.Now()
	expvar.Publish("memsched_events_per_second", expvar.Func(func() any {
		total, _ := expvar.Get("memsched_sim_events").(*expvar.Int)
		if total == nil {
			return 0.0
		}
		elapsed := time.Since(started).Seconds()
		if elapsed <= 0 {
			return 0.0
		}
		return float64(total.Value()) / elapsed
	}))
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "debug endpoint: %v\n", err)
		}
	}()
	fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/debug/vars and /debug/pprof\n", addr)
}

// runTraceCell deep-dives one (figure, point, strategy) cell: it reruns
// the cell fully instrumented, writes a Chrome trace and the scheduler
// decision log under outDir, prints the telemetry JSON line on stdout
// and the idle/overlap analysis on stderr. A non-empty fault plan is
// injected into the cell (fault events appear in the Chrome trace).
func runTraceCell(spec, outDir string, plan *fault.Plan) error {
	f, pi, strat, err := parseCellSpec("-trace-cell", spec)
	if err != nil {
		return err
	}

	base := fmt.Sprintf("%s_p%d_%s", sanitize(f.ID), pi, sanitize(strat.Label))
	decPath := filepath.Join(outDir, base+"_decisions.log")
	decFile, err := os.Create(decPath)
	if err != nil {
		return err
	}
	defer decFile.Close()
	declog := &sched.DecisionLog{W: decFile}
	digRec := new(sched.DigestRecorder)

	inst := f.Points[pi].Build()
	res, err := expr.RunCell(inst, strat.WithRecorder(sched.MultiRecorder{declog, digRec}), f.Platform, f.NsPerOp, f.Seed, nil, plan)
	if err != nil {
		return err
	}

	tracePath := filepath.Join(outDir, base+"_trace.json")
	traceFile, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := sim.WriteChromeTrace(traceFile, inst, f.Platform, res); err != nil {
		traceFile.Close()
		return err
	}
	if err := traceFile.Close(); err != nil {
		return err
	}

	// The telemetry JSON line (same schema as -telemetry) goes to stdout
	// so it can be piped; the human-oriented report goes to stderr.
	cell := expr.CellTelemetry{Row: metrics.FromResult(f.ID, res), Telemetry: res.Telemetry, Decisions: digRec.Digest(), Faults: res.Faults}
	if err := json.NewEncoder(os.Stdout).Encode(cell); err != nil {
		return err
	}
	a, err := sim.Analyze(inst, f.Platform, res)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s point %d (%s) on %s:\n%s", f.ID, pi, strat.Label, inst.Name(), a.String())
	fmt.Fprintf(os.Stderr, "%d scheduler decisions -> %s\nchrome trace (load in chrome://tracing) -> %s\n",
		declog.N, decPath, tracePath)
	return nil
}

// parseCellSpec resolves a figure:point:strategy cell spec (shared by
// -trace-cell and -critpath); flagName only shapes the error messages.
func parseCellSpec(flagName, spec string) (*expr.Figure, int, *sched.Strategy, error) {
	parts := strings.SplitN(spec, ":", 3)
	if len(parts) != 3 {
		return nil, 0, nil, fmt.Errorf("%s wants figure:point:strategy (e.g. fig3:5:DARTS+LUF), got %q", flagName, spec)
	}
	f, err := expr.ByID(parts[0])
	if err != nil {
		return nil, 0, nil, err
	}
	pi, err := strconv.Atoi(parts[1])
	if err != nil || pi < 0 || pi >= len(f.Points) {
		return nil, 0, nil, fmt.Errorf("%s point %q out of range [0, %d)", flagName, parts[1], len(f.Points))
	}
	for i := range f.Strategies {
		if strings.EqualFold(f.Strategies[i].Label, parts[2]) {
			return f, pi, &f.Strategies[i], nil
		}
	}
	labels := make([]string, len(f.Strategies))
	for i, s := range f.Strategies {
		labels[i] = s.Label
	}
	return nil, 0, nil, fmt.Errorf("%s strategy %q not in %s (have: %s)", flagName, parts[2], f.ID, strings.Join(labels, ", "))
}

// runCritPath runs the makespan attribution for one cell: it reruns the
// cell with trace recording, reconstructs the critical path, prints the
// blame report (categories, counterfactual bounds, leaderboards) on
// stdout, and writes the critical-path-highlighted Chrome trace under
// outDir. A non-empty fault plan is injected into the cell, so fault
// recovery shows up as attributed path segments.
func runCritPath(spec, outDir string, plan *fault.Plan) error {
	f, pi, strat, err := parseCellSpec("-critpath", spec)
	if err != nil {
		return err
	}
	inst := f.Points[pi].Build()
	res, err := expr.RunOneTraced(nil, inst, *strat, f.Platform, f.NsPerOp, f.Seed, true, plan)
	if err != nil {
		return err
	}
	p, err := critpath.Analyze(inst, res)
	if err != nil {
		return err
	}

	base := fmt.Sprintf("%s_p%d_%s", sanitize(f.ID), pi, sanitize(strat.Label))
	tracePath := filepath.Join(outDir, base+"_critpath_trace.json")
	traceFile, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := critpath.WriteHighlightedChromeTrace(traceFile, inst, f.Platform, res, p); err != nil {
		traceFile.Close()
		return err
	}
	if err := traceFile.Close(); err != nil {
		return err
	}

	critpath.Report(os.Stdout, inst, res, p)
	fmt.Fprintf(os.Stderr, "highlighted chrome trace (load in chrome://tracing) -> %s\n", tracePath)
	return nil
}

// sanitize maps a figure or strategy label to a filename-safe slug.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-' || r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}

// runFigure executes one experiment, rendering its tables into out and
// writing its CSV (and optionally its telemetry JSON lines) under
// outDir. With baseline ops active it also records or checks the
// figure's BENCH file, reporting whether the check regressed.
func runFigure(f *expr.Figure, out *bytes.Buffer, outDir string, opt expr.RunOptions, verbose, plot, telemetry bool, bl *baselineOps, board *statusBoard) (regressed bool, err error) {
	if verbose {
		opt.Progress = os.Stderr
	}
	slug := strings.ReplaceAll(f.ID, "+", "_")
	if telemetry {
		tf, err := os.Create(filepath.Join(outDir, slug+"_telemetry.jsonl"))
		if err != nil {
			return false, err
		}
		defer tf.Close()
		opt.TelemetryOut = tf
	}
	var cells []expr.CellTelemetry
	if bl.active() {
		opt.OnCell = func(c expr.CellTelemetry) { cells = append(cells, c) }
	}
	if board != nil {
		// Chain the status-page progress tick behind any baseline capture.
		prev := opt.OnCell
		opt.OnCell = func(c expr.CellTelemetry) {
			if prev != nil {
				prev(c)
			}
			board.cellDone(f.ID)
		}
	}
	board.figureStarted(f.ID)
	var speed expr.SweepSpeed
	opt.Speed = &speed
	rows, runErr := f.Run(opt)
	board.figureFinished(f.ID, speed, runErr != nil)
	var sweepErr *expr.SweepError
	if runErr != nil && !errors.As(runErr, &sweepErr) {
		return false, runErr
	}
	// On a SweepError (failed or cancelled cells) the completed rows are
	// still rendered, written to CSV and merged into the baselines; the
	// error propagates so the run exits non-zero.
	fmt.Fprintf(out, "== %s: %s ==\n", f.ID, f.Title)
	fmt.Fprintf(out, "   reference: %s\n\n", f.RefLines())
	for _, m := range f.Metrics {
		fmt.Fprintln(out, metrics.FormatTable(rows, m))
		if plot {
			fmt.Fprintln(out, metrics.Plot(rows, m, 72, 18))
		}
	}
	printHeadlines(out, f.ID, rows)
	if speed.Cells > 0 {
		p := speed.Partitions
		fmt.Fprintf(out, "engine: %d sim events across %d cells in %.2fs wall (%.0f events/s); partitions: %d requested, %d computed, %d waited\n",
			speed.Events, speed.Cells, speed.Wall.Seconds(), speed.EventsPerSec(), p.Requested, p.Computed, p.Waited)
	}
	if telemetry && speed.Cells > 0 {
		// Engine speed goes to its own file: the telemetry JSONL is
		// byte-compared across runs (crash-resume smoke, compare mode)
		// and wall time is not deterministic.
		if err := writeSpeedRecord(filepath.Join(outDir, slug+"_speed.jsonl"), f.ID, speed); err != nil {
			return false, err
		}
	}

	csvFile, err := os.Create(filepath.Join(outDir, slug+".csv"))
	if err != nil {
		return false, err
	}
	if err := metrics.WriteCSV(csvFile, rows); err != nil {
		csvFile.Close()
		return false, err
	}
	if err := csvFile.Close(); err != nil {
		return false, err
	}
	if bl.active() {
		regressed, err = bl.apply(f.ID, cells, out)
		if err != nil {
			return false, err
		}
	}
	fmt.Fprintln(out)
	return regressed, runErr
}

// writeSpeedRecord appends one JSON line with the figure's aggregate
// engine throughput to its own file, kept apart from the telemetry
// JSONL so byte-level comparisons of the latter stay meaningful.
func writeSpeedRecord(path, figID string, speed expr.SweepSpeed) error {
	sf, err := os.Create(path)
	if err != nil {
		return err
	}
	rec := struct {
		Figure       string                `json:"figure"`
		Events       int64                 `json:"events"`
		Cells        int                   `json:"cells"`
		WallSeconds  float64               `json:"wall_seconds"`
		EventsPerSec float64               `json:"events_per_sec"`
		Partitions   hypergraph.MemoCounts `json:"partitions"`
	}{figID, speed.Events, speed.Cells, speed.Wall.Seconds(), speed.EventsPerSec(), speed.Partitions}
	if err := json.NewEncoder(sf).Encode(rec); err != nil {
		sf.Close()
		return err
	}
	return sf.Close()
}

// runDegradation executes the fault-degradation sweep (expr.RunDegradation):
// GFlop/s versus transient transfer failure rate for a panel of
// strategies on the 2-GPU 2D product, optionally combined with the
// dropouts (and seed) of the -faults plan. It prints the table, writes
// <out>/degradation.csv, and returns the process exit code.
func runDegradation(ctx context.Context, outDir string, workers int, plan *fault.Plan, verbose bool) int {
	opt := expr.DegradationOptions{Workers: workers, Context: ctx, Seed: 1}
	if plan != nil {
		if plan.Seed != 0 {
			opt.Seed = plan.Seed
		}
		opt.Dropouts = plan.Dropouts
		if t := plan.Transient; t != nil && t.Rate > 0 {
			// The sweep owns the rate axis; the plan contributes the
			// retry shape.
			opt.MaxRetries, opt.Backoff = t.MaxRetries, t.Backoff
		}
	}
	if verbose {
		opt.Progress = os.Stderr
	}
	rows, err := expr.RunDegradation(opt)
	if len(rows) > 0 {
		fmt.Println("== degradation: GFlop/s vs transient transfer failure rate ==")
		fmt.Print(expr.FormatDegradationTable(rows))
		csvFile, cerr := os.Create(filepath.Join(outDir, "degradation.csv"))
		if cerr == nil {
			cerr = expr.WriteDegradationCSV(csvFile, rows)
			if closeErr := csvFile.Close(); cerr == nil {
				cerr = closeErr
			}
		}
		if cerr != nil {
			fmt.Fprintln(os.Stderr, cerr)
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// runAblations executes the DESIGN.md §6 studies and prints one table
// per study. It returns the process exit code.
func runAblations(outDir string) int {
	var all []metrics.Row
	for _, a := range expr.Ablations() {
		rows, err := a.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", a.ID, err)
			return 1
		}
		fmt.Printf("== %s: %s ==\n", a.ID, a.Title)
		w := 0
		for _, r := range rows {
			if len(r.Scheduler) > w {
				w = len(r.Scheduler)
			}
		}
		for _, r := range rows {
			fmt.Printf("  %-*s  %8.0f GFlop/s  %10.1f MB moved  makespan %8.1f ms\n",
				w, r.Scheduler, r.GFlops, r.TransferredMB, r.MakespanMS)
		}
		fmt.Println()
		all = append(all, rows...)
	}
	out, err := os.Create(filepath.Join(outDir, "ablations.csv"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer out.Close()
	if err := metrics.WriteCSV(out, all); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// printHeadlines restates the paper's headline claims for the experiments
// that carry one, with our measured value.
func printHeadlines(out *bytes.Buffer, id string, rows []metrics.Row) {
	type claim struct {
		a, b  string
		paper string
	}
	claims := map[string]claim{
		"fig3+4": {"DARTS+LUF", "DMDAR", "paper: +8.5% on average (1 GPU)"},
		"fig6+7": {"DARTS+LUF", "DMDAR", "paper: +9.4% on average (2 GPUs)"},
		"fig9":   {"DARTS+LUF", "DMDAR", "paper: +75% on average (randomized order)"},
		"fig10":  {"DARTS+LUF-3inputs", "DMDAR", "paper: +61% (3D product)"},
		"fig11":  {"DARTS+LUF+OPTI-3inputs", "hMETIS+R no part. time", "paper: +49% (Cholesky)"},
		"fig12":  {"DARTS+LUF", "DMDAR", "paper: +40% (sparse)"},
	}
	c, ok := claims[id]
	if !ok {
		return
	}
	gain, n := metrics.SpeedupOver(rows, c.a, c.b)
	if n == 0 {
		return
	}
	fmt.Fprintf(out, "headline: %s vs %s: %+.1f%% GFlop/s on average over %d points (%s)\n",
		c.a, c.b, gain, n, c.paper)
}
