package main

import (
	"strings"
	"testing"
	"time"

	"memsched/internal/memory"
	"memsched/internal/platform"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

func TestBuildWorkload(t *testing.T) {
	cases := map[string]struct {
		n     int
		tasks int
		data  int
	}{
		"matmul2d":      {5, 25, 10},
		"matmul2d-rand": {5, 25, 10},
		"matmul3d":      {3, 27, 18},
		"cholesky":      {4, 20, 10},
	}
	for name, c := range cases {
		inst, err := workload.ByName(name, c.n, 0.02, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if inst.NumTasks() != c.tasks || inst.NumData() != c.data {
			t.Errorf("%s: %d tasks, %d data (want %d, %d)",
				name, inst.NumTasks(), inst.NumData(), c.tasks, c.data)
		}
	}
	if _, err := workload.ByName("sparse2d", 30, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.ByName("bogus", 5, 0, 1); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestPrintResult(t *testing.T) {
	// printResult writes to stdout; just make sure it does not panic on
	// a fully populated result.
	res := &sim.Result{
		SchedulerName: "X", InstanceName: "Y", NumGPUs: 1,
		GPU: []sim.GPUStats{{Tasks: 1}},
	}
	printResult(res, platform.V100(1))
	res.Faults = &sim.FaultStats{Dropouts: 1, TransferRetries: 2}
	printResult(res, platform.V100(1))
}

func TestWorkloadNamesMatchHelp(t *testing.T) {
	// Every workload listed in the flag help must build.
	for _, name := range []string{"matmul2d", "matmul2d-rand", "matmul3d", "cholesky", "sparse2d"} {
		if _, err := workload.ByName(name, 4, 0.5, 1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !strings.Contains("matmul2d, matmul2d-rand, matmul3d, cholesky, sparse2d", name) {
			t.Errorf("%s missing from help text", name)
		}
	}
}

// TestHMetisRMatmul3DTerminates runs `memsched -workload matmul3d -n 10
// -gpus 8 -sched hMETIS+R` (and -n 15 -gpus 6) the way main does. The
// partitioner's rebalance used to cycle forever between two infeasible
// bisections on these instances.
func TestHMetisRMatmul3DTerminates(t *testing.T) {
	for _, c := range []struct{ n, gpus int }{{10, 8}, {15, 6}} {
		done := make(chan error, 1)
		go func() {
			inst, err := workload.ByName("matmul3d", c.n, workload.DefaultSparseKeep, 1)
			if err != nil {
				done <- err
				return
			}
			strat, err := sched.ByName("hMETIS+R")
			if err != nil {
				done <- err
				return
			}
			s, pol := strat.New()
			var ev sim.EvictionPolicy = pol
			if ev == nil {
				ev = memory.NewLRU()
			}
			plat := platform.V100(c.gpus)
			plat.MemoryBytes = 500 * platform.MB
			_, err = sim.Run(inst, sim.Config{Platform: plat, Scheduler: s, Eviction: ev, Seed: 1, CheckInvariants: true})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("matmul3d n=%d gpus=%d: %v", c.n, c.gpus, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("matmul3d n=%d gpus=%d: hMETIS+R still running after 30s", c.n, c.gpus)
		}
	}
}
