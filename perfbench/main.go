// Command perfbench is memsched's end-to-end benchmark. It runs one named
// workload from a seed, checks every output the program produced against
// an independent reference, and prints its metrics by name with their
// units as the last line of standard output:
//
//	{"correct": true, "attempted": 240, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// per-layer instrumentation. With --trace 1 the same workload runs with
// timing wrappers around each layer's public seam and the per-layer
// metrics are printed instead. See README.md for the workloads, the
// metric map and how to read a traced run.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sweep-hmetis --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metricDef names one printed metric and its unit. BENCHMARK.json lists
// the same names (TestMetricTablesMatchBenchmarkJSON pins the two).
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, printed for every
// workload. A "pass" is one unit of fixed work: one Figure.Run for the
// sweeps, one batch of batchJobs jobs for the fleet; "ops" are cells or
// jobs.
var endToEnd = []metricDef{
	{"setup_s", "s"},       // median set-up time over several set-ups
	{"sweep_s", "s"},       // median wall time of one pass
	{"cpu_s", "s"},         // median process user+sys CPU of one pass
	{"peak_heap_mb", "MB"}, // median over passes of the highest sampled heap in use
	{"p90_ms", "ms"},       // median over passes of the pass's 90th percentile op latency
	{"heavy_ms", "ms"},     // the same of ops through the workload's dominant layer: sweeps their mean, fleet their p50
	{"light_ms", "ms"},     // the same of the other ops
}

// perLayer are the metrics of a traced run. Layers a workload does not
// exercise print 0.
var perLayer = []metricDef{
	{"expr.sweep_1w_s", "s"},
	{"expr.sweep_1w_traced_s", "s"},
	{"expr.cells", "count"},
	{"expr.cell_max_ms", "ms"},
	{"expr.encode_ms", "ms"},
	{"workload.build_ms", "ms"},
	{"hypergraph.partition_ms", "ms"},
	{"hypergraph.partitions", "count"},
	{"hypergraph.alloc_mb", "MB"},
	{"sched.hfp_init_ms", "ms"},
	{"sched.hfp_alloc_mb", "MB"},
	{"sched.init_ms", "ms"},
	{"sched.pops", "count"},
	{"sched.pop_ms", "ms"},
	{"sched.pop_ns", "ns"},
	{"memory.victims", "count"},
	{"memory.victim_ms", "ms"},
	{"sim.events", "count"},
	{"sim.self_ms", "ms"},
	{"sim.events_per_s", "1/s"},
	{"critpath.calls", "count"},
	{"critpath.analyze_ms", "ms"},
	{"fleet.accept_ms", "ms"},
	{"fleet.journal_records_per_job", "count"},
	{"fleet.journal_append_ms", "ms"},
	{"fleet.dispatch_ms", "ms"},
	{"fleet.dispatch_rtts_per_job", "count"},
	{"serve.submit_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"fleet.cache_hits", "count"},
	{"fleet.hedges", "count"},
	{"fleet.redispatches", "count"},
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// spansPath receives the traced run's spans as JSON lines.
	spansPath string
}

// report is what a workload returns: the output-check verdict and the
// metric values (end-to-end or per-layer, by cfg.trace).
type report struct {
	attempted, failed int
	problems          []string
	values            map[string]float64
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"sweep-hmetis":    func(c runConfig) (*report, error) { return runSweep(sweepHMETIS, c) },
	"sweep-telemetry": func(c runConfig) (*report, error) { return runSweep(sweepTelemetry, c) },
	"fleet-journal":   runFleet,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg runConfig
	var seconds, trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: sweep-hmetis, sweep-telemetry or fleet-journal")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 20, "measured duration in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the per-layer traced variant")
	flag.Parse()
	fn, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sweep-hmetis, sweep-telemetry, fleet-journal), --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	fmt.Printf("machine: nproc=%d GOMAXPROCS=%d GOARCH=%s go=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version())
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, seconds, trace)

	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !cfg.trace && !ok {
			rep.problem("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.problem("metric %s is %v", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if rep.attempted < 1 {
		rep.problem("no operation was attempted")
	}
	if rep.failed > 0 {
		rep.problem("%d of %d operations failed", rep.failed, rep.attempted)
	}
	out.Correct = len(rep.problems) == 0
	for i, p := range rep.problems {
		if i == 20 {
			fmt.Printf("check: ... %d more problems\n", len(rep.problems)-i)
			break
		}
		fmt.Printf("check: FAIL %s\n", p)
	}
	if out.Correct {
		fmt.Printf("check: ok (%d ops verified)\n", rep.attempted)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
