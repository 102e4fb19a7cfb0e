// Command memsched runs one scheduling strategy on one workload and
// prints the metrics of the run (or its full event trace).
//
// Usage:
//
//	memsched -workload matmul2d -n 50 -gpus 2 -sched DARTS+LUF
//	memsched -workload cholesky -n 24 -gpus 4 -sched "hMETIS+R" -cost
//	memsched -workload matmul2d -n 30 -gpus 4 -faults drop=1@5ms,transient=0.05
//	memsched -list
//
// Workloads: matmul2d, matmul2d-rand, matmul3d, cholesky, sparse2d.
package main

import (
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"memsched/internal/fault"
	"memsched/internal/memory"
	"memsched/internal/platform"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/taskgraph"
	"memsched/internal/workload"
)

func main() {
	var (
		wl        = flag.String("workload", "matmul2d", "workload: "+workload.Names)
		n         = flag.Int("n", 20, "workload size parameter")
		gpus      = flag.Int("gpus", 1, "number of GPUs")
		schedName = flag.String("sched", "DARTS+LUF", "strategy name (see -list)")
		memMB     = flag.Int64("mem", 500, "GPU memory in MB")
		seed      = flag.Int64("seed", 1, "random seed")
		keep      = flag.Float64("keep", workload.DefaultSparseKeep, "fraction of tasks kept by sparse2d")
		cost      = flag.Bool("cost", false, "charge scheduler cost to the simulated clock")
		trace     = flag.Bool("trace", false, "dump the full event trace")
		timeline  = flag.Bool("timeline", false, "render a text Gantt chart of the run")
		chrome    = flag.String("chrometrace", "", "write a Chrome trace-event JSON of the run to this file")
		dump      = flag.String("dump", "", "write the generated instance as JSON to this file and exit")
		load      = flag.String("load", "", "load the instance from a JSON file instead of generating it")
		faults    = flag.String("faults", "", "fault plan, e.g. drop=1@5ms,transient=0.05 (see internal/fault)")
		check     = flag.Bool("check", true, "verify trace invariants")
		list      = flag.Bool("list", false, "list strategies and exit")
		stats     = flag.Bool("stats", false, "print the instance's sharing-structure summary and exit")
	)
	flag.Parse()

	if *list {
		for _, s := range sched.All() {
			fmt.Println(s.Label)
		}
		return
	}

	var inst *taskgraph.Instance
	var err error
	if *load != "" {
		f, ferr := os.Open(*load)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		inst, err = taskgraph.ReadJSON(f)
		f.Close()
	} else {
		inst, err = workload.ByName(*wl, *n, *keep, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *stats {
		fmt.Println(inst.Name())
		fmt.Println(inst.Summarize())
		return
	}
	if *dump != "" {
		f, ferr := os.Create(*dump)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		if err := inst.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s (%d tasks, %d data)\n", *dump, inst.NumTasks(), inst.NumData())
		return
	}
	strat, err := sched.ByName(*schedName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	plan, err := fault.ParseSpec(*faults)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := plan.Validate(*gpus); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	plat := platform.V100(*gpus)
	plat.MemoryBytes = *memMB * platform.MB
	nsPerOp := 0.0
	if *cost {
		nsPerOp = sim.DefaultNsPerOp
	}

	s, pol := strat.New()
	var ev sim.EvictionPolicy = pol
	if ev == nil {
		ev = memory.NewLRU()
	}
	res, err := sim.Run(inst, sim.Config{
		Platform:        plat,
		Scheduler:       s,
		Eviction:        ev,
		Seed:            *seed,
		NsPerOp:         nsPerOp,
		RecordTrace:     *trace || *timeline || *chrome != "",
		CheckInvariants: *check,
		Faults:          plan,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *trace {
		for _, e := range res.Trace {
			fmt.Println(e)
		}
		fmt.Println()
	}
	if *timeline {
		fmt.Println(sim.Timeline(inst, plat, res, 100))
		if a, aerr := sim.Analyze(inst, plat, res); aerr == nil {
			fmt.Println(a)
		}
	}
	if *chrome != "" {
		f, ferr := os.Create(*chrome)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		if err := sim.WriteChromeTrace(f, inst, plat, res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s (open in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}
	printResult(res, plat)
}

func printResult(res *sim.Result, plat platform.Platform) {
	fmt.Printf("%s on %s, %d GPU(s), %.0f MB memory each\n",
		res.SchedulerName, res.InstanceName, res.NumGPUs, float64(plat.MemoryBytes)/platform.MB)
	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "working set\t%.1f MB\n", float64(res.WorkingSetBytes)/platform.MB)
	fmt.Fprintf(w, "makespan\t%v\n", res.Makespan)
	fmt.Fprintf(w, "throughput\t%.0f GFlop/s (peak %.0f)\n", res.GFlops, plat.PeakGFlops())
	fmt.Fprintf(w, "transferred\t%.1f MB (%d loads, %d evictions)\n",
		float64(res.BytesTransferred)/platform.MB, res.Loads, res.Evictions)
	fmt.Fprintf(w, "sched cost\tstatic %v, dynamic %v (%d ops)\n", res.StaticCost, res.DynamicCost, res.ChargedOps)
	if f := res.Faults; f != nil {
		fmt.Fprintf(w, "faults\t%d dropouts (%d tasks killed, %d requeued, %.1f MB lost)\n",
			f.Dropouts, f.KilledTasks, f.RequeuedTasks, float64(f.LostBytes)/platform.MB)
		fmt.Fprintf(w, "\t%d transfer retries on %d transfers, backoff %v\n",
			f.TransferRetries, f.RetriedTransfers, f.BackoffTime)
		fmt.Fprintf(w, "\t%d pressure evictions, recovery %v\n",
			f.PressureEvictions, f.RecoveryTime)
	}
	for k, g := range res.GPU {
		fmt.Fprintf(w, "gpu %d\t%d tasks, %d loads, %d evictions, busy %v\n",
			k, g.Tasks, g.Loads, g.Evictions, g.BusyTime)
	}
	w.Flush()
}
