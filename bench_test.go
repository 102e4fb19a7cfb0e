package memsched_test

// One benchmark per figure of the paper's evaluation (Figures 3 to 13)
// plus ablation benchmarks for the design choices called out in
// DESIGN.md §6. The figure benchmarks run trimmed sweeps of the full
// experiments defined in internal/expr (cmd/paperbench runs the complete
// sweeps); each reports the throughput achieved by the paper's headline
// strategy at the most memory-constrained point of the trimmed sweep, as
// gflops/op, alongside MB-moved/op.

import (
	"strconv"
	"testing"

	"memsched"
	"memsched/internal/expr"
	"memsched/internal/memory"
	"memsched/internal/metrics"
	"memsched/internal/platform"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/workload"
)

// benchFigure runs the figure's experiment with the sweep capped at maxN
// and reports the headline strategy's numbers at the largest point.
func benchFigure(b *testing.B, id string, maxN int, headline string) {
	b.Helper()
	f, err := expr.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var rows []metrics.Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err = f.Run(expr.RunOptions{Quick: true, MaxN: maxN})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	var best *metrics.Row
	for i := range rows {
		r := &rows[i]
		if r.Scheduler == headline && (best == nil || r.WorkingSetMB > best.WorkingSetMB) {
			best = r
		}
	}
	if best == nil {
		b.Fatalf("headline strategy %q missing from rows", headline)
	}
	b.ReportMetric(best.GFlops, "gflops")
	b.ReportMetric(best.TransferredMB, "MBmoved")
}

// BenchmarkFig3 regenerates Figure 3 (GFlop/s, 2D product, 1 GPU).
func BenchmarkFig3(b *testing.B) { benchFigure(b, "fig3", 68, "DARTS+LUF") }

// BenchmarkFig4 regenerates Figure 4 (transfers, 2D product, 1 GPU).
func BenchmarkFig4(b *testing.B) { benchFigure(b, "fig4", 68, "EAGER") }

// BenchmarkFig5 regenerates Figure 5 (2 GPUs, simulation).
func BenchmarkFig5(b *testing.B) { benchFigure(b, "fig5", 68, "DARTS+LUF") }

// BenchmarkFig6 regenerates Figure 6 (2 GPUs, scheduling cost charged).
func BenchmarkFig6(b *testing.B) { benchFigure(b, "fig6", 68, "DARTS+LUF") }

// BenchmarkFig7 regenerates Figure 7 (transfers, 2 GPUs).
func BenchmarkFig7(b *testing.B) { benchFigure(b, "fig7", 68, "DMDAR") }

// BenchmarkFig8 regenerates Figure 8 (4 GPUs, with the threshold variant).
func BenchmarkFig8(b *testing.B) { benchFigure(b, "fig8", 85, "DARTS+LUF+threshold") }

// BenchmarkFig9 regenerates Figure 9 (randomized order, 2 GPUs).
func BenchmarkFig9(b *testing.B) { benchFigure(b, "fig9", 42, "DARTS+LUF") }

// BenchmarkFig10 regenerates Figure 10 (3D product, 4 GPUs).
func BenchmarkFig10(b *testing.B) { benchFigure(b, "fig10", 16, "DARTS+LUF-3inputs") }

// BenchmarkFig11 regenerates Figure 11 (Cholesky task set, 4 GPUs).
func BenchmarkFig11(b *testing.B) { benchFigure(b, "fig11", 24, "DARTS+LUF+OPTI-3inputs") }

// BenchmarkFig12 regenerates Figure 12 (sparse 2D product, 4 GPUs).
func BenchmarkFig12(b *testing.B) { benchFigure(b, "fig12", 150, "DARTS+LUF") }

// BenchmarkFig13 regenerates Figure 13 (sparse, no memory limit).
func BenchmarkFig13(b *testing.B) { benchFigure(b, "fig13", 150, "DARTS+LUF") }

// BenchmarkFigureRunParallel measures the experiment harness itself: the
// same trimmed Figure 3 sweep run through the parallel cell runner with
// 1, 2 and 4 workers. Rows are identical across worker counts (see
// TestWorkersConformance in internal/expr); only wall time changes. On a
// 4-core machine the 4-worker run completes the sweep about 2-3x faster
// than the sequential one (the sweep's longest single cell bounds the
// speedup); on a single-core machine the variants tie.
func BenchmarkFigureRunParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		w := w
		b.Run("workers-"+strconv.Itoa(w), func(b *testing.B) {
			f, err := expr.ByID("fig3")
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(expr.RunOptions{Quick: true, MaxN: 42, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchOne runs one (instance, strategy, platform) combo per iteration
// and reports its throughput and traffic.
func benchOne(b *testing.B, inst *memsched.Instance, strat memsched.Strategy, plat memsched.Platform, opt memsched.Options) {
	b.Helper()
	var res *memsched.Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = memsched.Run(inst, strat, plat, opt)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.GFlops, "gflops")
	b.ReportMetric(float64(res.BytesTransferred)/platform.MB, "MBmoved")
}

// BenchmarkAblationReadyWindow sweeps the Ready reorder depth of DMDAR:
// too small reintroduces the EAGER pathology, unbounded erases the
// submission-order sensitivity of Figure 9.
func BenchmarkAblationReadyWindow(b *testing.B) {
	inst := memsched.Matmul2D(80)
	for _, w := range []int{16, 64, 256, 1024, -1} {
		w := w
		name := "whole-queue"
		if w > 0 {
			name = "w" + strconv.Itoa(w)
		}
		b.Run(name, func(b *testing.B) {
			strat := memsched.Custom("DMDAR", func() (memsched.Scheduler, memsched.EvictionPolicy) {
				return sched.NewDMDAR(w)(), nil
			})
			benchOne(b, inst, strat, memsched.V100(2), memsched.Options{Seed: 1})
		})
	}
}

// BenchmarkAblationWindow sweeps the runtime prefetch window (taskBuffer
// depth): 1 disables transfer/compute overlap, large windows dilute the
// LUF information.
func BenchmarkAblationWindow(b *testing.B) {
	inst := memsched.Matmul2D(60)
	for _, w := range []int{1, 2, 4, 8, 16} {
		w := w
		b.Run("w"+strconv.Itoa(w), func(b *testing.B) {
			benchOne(b, inst, memsched.DARTSLUF(), memsched.V100(2),
				memsched.Options{Seed: 1, WindowSize: w})
		})
	}
}

// BenchmarkAblationEviction holds the scheduler fixed and swaps the
// eviction policy: DARTS with LRU (the pathological default), FIFO and
// LUF, and EAGER with LRU versus the optimal Belady oracle.
func BenchmarkAblationEviction(b *testing.B) {
	inst := memsched.Matmul2D(60)
	cases := []struct {
		name  string
		strat memsched.Strategy
	}{
		{"DARTS-LRU", memsched.DARTS()},
		{"DARTS-FIFO", memsched.Custom("DARTS+FIFO", func() (memsched.Scheduler, memsched.EvictionPolicy) {
			s, _ := memsched.DARTS().New()
			return s, memory.NewFIFO()
		})},
		{"DARTS-LUF", memsched.DARTSLUF()},
		{"EAGER-LRU", memsched.Eager()},
		{"EAGER-Belady", memsched.EagerBelady()},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchOne(b, inst, c.strat, memsched.V100(1), memsched.Options{Seed: 1})
		})
	}
}

// BenchmarkExtensionNVLink compares the paper's platform with and without
// the NVLink peer-transfer extension (SVI future work) under DARTS+LUF.
func BenchmarkExtensionNVLink(b *testing.B) {
	inst := memsched.Matmul2D(80)
	for _, nv := range []bool{false, true} {
		nv := nv
		name := "pci-only"
		if nv {
			name = "nvlink"
		}
		b.Run(name, func(b *testing.B) {
			plat := memsched.V100(4)
			if nv {
				plat = memsched.V100NVLink(4)
			}
			benchOne(b, inst, memsched.DARTSLUF(), plat, memsched.Options{Seed: 1})
		})
	}
}

// BenchmarkAblationThreshold sweeps the DARTS candidate threshold on a
// large 4-GPU task set with scheduling cost charged (the trade-off of
// Figure 8: a low threshold cuts scheduling time but degrades the
// schedule).
func BenchmarkAblationThreshold(b *testing.B) {
	inst := memsched.Matmul2D(100)
	for _, t := range []int{2, 5, 10, 50, 0} {
		t := t
		name := "unbounded"
		if t > 0 {
			name = "t" + strconv.Itoa(t)
		}
		b.Run(name, func(b *testing.B) {
			strat := memsched.DARTSWith(memsched.DARTSOptions{LUF: true, Threshold: t})
			benchOne(b, inst, strat, memsched.V100(4),
				memsched.Options{Seed: 1, NsPerOp: memsched.DefaultNsPerOp})
		})
	}
}

// BenchmarkAblationStealing toggles task stealing for hMETIS+R on a
// transfer-imbalanced sparse workload.
func BenchmarkAblationStealing(b *testing.B) {
	inst := memsched.Sparse2D(200, workload.DefaultSparseKeep, 42)
	for _, steal := range []bool{true, false} {
		steal := steal
		name := "steal"
		if !steal {
			name = "nosteal"
		}
		b.Run(name, func(b *testing.B) {
			strat := memsched.Custom("hMETIS+R", func() (memsched.Scheduler, memsched.EvictionPolicy) {
				return sched.NewHMetisRSteal(false, 0, steal)(), nil
			})
			benchOne(b, inst, strat, memsched.V100(4), memsched.Options{Seed: 1})
		})
	}
}

// BenchmarkAblationBusModel compares the FIFO and fair-share contention
// models of the shared bus on a constrained multi-GPU workload.
func BenchmarkAblationBusModel(b *testing.B) {
	inst := memsched.Matmul2D(60)
	for _, model := range []memsched.BusModel{memsched.BusFIFO, memsched.BusFairShare} {
		model := model
		b.Run(model.String(), func(b *testing.B) {
			benchOne(b, inst, memsched.DARTSLUF(), memsched.V100(2),
				memsched.Options{Seed: 1, BusModel: model})
		})
	}
}

// BenchmarkAblationBandwidth sweeps the shared bus bandwidth: the
// crossover between compute-bound and transfer-bound shifts with it.
func BenchmarkAblationBandwidth(b *testing.B) {
	inst := memsched.Matmul2D(60)
	for _, gbps := range []float64{6, 12, 24} {
		gbps := gbps
		b.Run("GBps"+strconv.Itoa(int(gbps)), func(b *testing.B) {
			plat := memsched.V100(2)
			plat.BusBytesPerSecond = gbps * platform.GB
			benchOne(b, inst, memsched.DARTSLUF(), plat, memsched.Options{Seed: 1})
		})
	}
}

// BenchmarkPartitioner measures the multilevel hypergraph partitioner on
// the 2D product sharing structure (the hMETIS+R static phase).
func BenchmarkPartitioner(b *testing.B) {
	inst := memsched.Matmul2D(60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		strat := memsched.HMetisR(false)
		if _, err := memsched.Run(inst, strat, memsched.V100(4), memsched.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineEventsPerSec is the regression gate for raw engine
// speed: figure-scale workloads run back to back on one recycled
// Scratch (the sweep harness's steady state) and the headline metric is
// discrete events simulated per wall-clock second. CI runs this with
// -benchtime 1x and archives the numbers; compare events/s across
// commits to catch event-core regressions.
func BenchmarkEngineEventsPerSec(b *testing.B) {
	cases := []struct {
		name  string
		inst  *memsched.Instance
		strat memsched.Strategy
		plat  memsched.Platform
	}{
		// The fig3 and fig5 headline points: DARTS+LUF at the most
		// memory-constrained sweep point, 1 and 2 GPUs.
		{"fig3-darts-luf", memsched.Matmul2D(68), memsched.DARTSLUF(), memsched.V100(1)},
		{"fig5-darts-luf-2gpu", memsched.Matmul2D(68), memsched.DARTSLUF(), memsched.V100(2)},
		// The cheapest scheduler: engine overhead dominates.
		{"eager-2gpu", memsched.Matmul2D(80), memsched.Eager(), memsched.V100(2)},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			sc := memsched.NewScratch()
			opt := memsched.Options{Seed: 1, Telemetry: true, Scratch: sc}
			var events int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := memsched.Run(c.inst, c.strat, c.plat, opt)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Events
			}
			b.StopTimer()
			if b.Elapsed() > 0 {
				b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
			}
		})
	}
}

// benchmark helpers must not use the sim package directly for anything
// stateful; keep a compile-time check that the public facade suffices.
var _ = sim.DefaultWindowSize

// BenchmarkExtensionHeterogeneous compares strategies on a machine with
// mixed GPU speeds (one fast, three slow), the heterogeneity the paper's
// model extends to (§III) and DMDA was designed for.
func BenchmarkExtensionHeterogeneous(b *testing.B) {
	inst := memsched.Matmul2D(60)
	plat := memsched.Heterogeneous(13253, 6000, 6000, 6000)
	for _, strat := range []memsched.Strategy{memsched.Eager(), memsched.DMDAR(), memsched.DARTSLUF()} {
		strat := strat
		b.Run(strat.Label, func(b *testing.B) {
			benchOne(b, inst, strat, plat, memsched.Options{Seed: 1})
		})
	}
}

// BenchmarkAblationCliqueExpansion compares the hypergraph partitioner
// with the clique-expansion (plain graph, METIS-style) model the paper
// argues against in §IV-B, on the sharing-heavy 2D product.
func BenchmarkAblationCliqueExpansion(b *testing.B) {
	inst := memsched.Matmul2D(60)
	cases := []struct {
		name    string
		factory func() (memsched.Scheduler, memsched.EvictionPolicy)
	}{
		{"hypergraph", func() (memsched.Scheduler, memsched.EvictionPolicy) {
			return sched.NewHMetisR(false, 0)(), nil
		}},
		{"clique", func() (memsched.Scheduler, memsched.EvictionPolicy) {
			return sched.NewMetisR(false, 0)(), nil
		}},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchOne(b, inst, memsched.Custom(c.name, c.factory), memsched.V100(4), memsched.Options{Seed: 1})
		})
	}
}

// BenchmarkRelatedWorkStealing compares the related-work schools on the
// constrained 4-GPU 2D product: locality by work stealing (XKaapi-style,
// §II-c) versus locality by partitioning (hMETIS+R) versus locality by
// planning (DARTS+LUF).
func BenchmarkRelatedWorkStealing(b *testing.B) {
	inst := memsched.Matmul2D(60)
	cases := []struct {
		name  string
		strat memsched.Strategy
	}{
		{"WS-locality", memsched.Custom("WS-locality", func() (memsched.Scheduler, memsched.EvictionPolicy) {
			return sched.NewWorkStealing(0, 0)(), nil
		})},
		{"hMETIS+R", memsched.HMetisR(false)},
		{"DARTS+LUF", memsched.DARTSLUF()},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchOne(b, inst, c.strat, memsched.V100(4), memsched.Options{Seed: 1})
		})
	}
}

// BenchmarkExtensionOutputs compares the paper's output-free model with
// the write-back extension of §I on the constrained 2-GPU 2D product.
func BenchmarkExtensionOutputs(b *testing.B) {
	cases := []struct {
		name string
		inst *memsched.Instance
	}{
		{"no-outputs", memsched.Matmul2D(60)},
		{"write-back", memsched.Matmul2DWithOutputs(60)},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			benchOne(b, c.inst, memsched.DARTSLUF(), memsched.V100(2), memsched.Options{Seed: 1})
		})
	}
}
