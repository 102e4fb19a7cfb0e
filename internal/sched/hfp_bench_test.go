package sched

import (
	"runtime"
	"testing"

	"memsched/internal/taskgraph"
	"memsched/internal/workload"
)

// BenchmarkMHFPInit measures mHFP packing alone: fig3's largest point
// (Matmul2D(150), one 500 MB V100) and a 4-GPU 2D product.
func BenchmarkMHFPInit(b *testing.B) {
	for _, c := range []struct {
		name string
		inst *taskgraph.Instance
		gpus int
	}{
		{"fig3-n150-1gpu", workload.Matmul2D(150), 1},
		{"n110-4gpu", workload.Matmul2D(110), 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v := newFakeView(c.inst, c.gpus)
				NewMHFP(true, 0)().Init(c.inst, v)
			}
		})
	}
}

// TestMHFPInitAllocBudget gates mHFP packing's allocations: one Init of
// Matmul2D(100) on one 500 MB GPU must allocate at most 8 MB in total.
// The map-and-sort affinity scan it replaced allocated 87 MB for the
// same call.
func TestMHFPInitAllocBudget(t *testing.T) {
	inst := workload.Matmul2D(100)
	v := newFakeView(inst, 1)
	s := NewMHFP(true, 0)()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Init(inst, v)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("MHFP.Init(Matmul2D(100), 1 GPU) allocated %.1f MB", mb)
	if mb > 8 {
		t.Fatalf("MHFP.Init allocated %.1f MB, budget 8 MB", mb)
	}
}
