package sched

import (
	"fmt"

	"memsched/internal/hypergraph"
	"memsched/internal/sim"
	"memsched/internal/taskgraph"
)

// HMetisR implements the paper's hMETIS+R strategy (§IV-B, Algorithm 3):
// model data sharing as a hypergraph (one vertex per task, one hyperedge
// per data item connecting all its consumers), partition it into K
// balanced parts with few cut hyperedges, allocate part k to GPU k, then
// at runtime reorder each local queue with Ready and steal half of the
// most loaded GPU's remaining tasks when idle.
type HMetisR struct {
	base
	cfg         hypergraph.Config
	chargeCost  bool
	readyWindow int
	steal       bool
	clique      bool // partition the clique expansion instead (METIS-style, [10])
	queues      [][]taskgraph.TaskID
	view        sim.RuntimeView
	name        string
}

// NewHMetisR returns a Factory for hMETIS+R. chargeCost selects whether
// the partitioning cost is charged to the simulated clock (the paper plots
// both "hMETIS+R" and "hMETIS+R no part. time"). readyWindow bounds the
// Ready scan (0 = whole queue).
func NewHMetisR(chargeCost bool, readyWindow int) Factory {
	return NewHMetisRSteal(chargeCost, readyWindow, true)
}

// NewHMetisRSteal is NewHMetisR with task stealing switchable, for the
// stealing ablation bench.
func NewHMetisRSteal(chargeCost bool, readyWindow int, steal bool) Factory {
	name := "hMETIS+R"
	if !chargeCost {
		name = "hMETIS+R no part. time"
	}
	if !steal {
		name += " no steal"
	}
	if readyWindow == 0 {
		readyWindow = DefaultReadyWindow
	}
	return func() sim.Scheduler {
		return &HMetisR{
			cfg:         hypergraph.Config{UBFactor: 1, Nruns: 20, VCycles: 2},
			chargeCost:  chargeCost,
			readyWindow: readyWindow,
			steal:       steal,
			name:        name,
		}
	}
}

// NewMetisR returns the clique-expansion variant: data sharing is modeled
// as a plain graph whose edges are weighted by shared data (as Yoo et
// al. [10] do with METIS) instead of a hypergraph. §IV-B of the paper
// argues this over-counts data shared by three or more tasks; the
// ablation bench measures the difference.
func NewMetisR(chargeCost bool, readyWindow int) Factory {
	name := "METIS+R (clique)"
	if !chargeCost {
		name = "METIS+R (clique) no part. time"
	}
	if readyWindow == 0 {
		readyWindow = DefaultReadyWindow
	}
	return func() sim.Scheduler {
		return &HMetisR{
			cfg:         hypergraph.Config{UBFactor: 1, Nruns: 20, VCycles: 2},
			chargeCost:  chargeCost,
			readyWindow: readyWindow,
			steal:       true,
			clique:      true,
			name:        name,
		}
	}
}

// Name returns "hMETIS+R" or "hMETIS+R no part. time".
func (s *HMetisR) Name() string { return s.name }

// Init builds the hypergraph H = (T, {h_j}) with one hyperedge per data
// item (weighted by its size), partitions it K ways through the run's
// partition memo, and fills the per-GPU queues in submission order
// within each part.
func (s *HMetisR) Init(inst *taskgraph.Instance, view sim.RuntimeView) {
	s.view = view
	k := view.Platform().NumGPUs
	s.queues = make([][]taskgraph.TaskID, k)
	if k == 1 {
		q := make([]taskgraph.TaskID, inst.NumTasks())
		for i := range q {
			q[i] = taskgraph.TaskID(i)
		}
		s.queues[0] = q
		return
	}
	h := hypergraph.New(inst.NumTasks())
	for d := 0; d < inst.NumData(); d++ {
		cons := inst.Consumers(taskgraph.DataID(d))
		pins := make([]int32, len(cons))
		for i, t := range cons {
			pins[i] = int32(t)
		}
		// Weight hyperedges by data size so the cut counts bytes: with
		// uniform sizes this matches the paper exactly, and it extends
		// naturally to heterogeneous data (§III notes the extension).
		w := inst.Data(taskgraph.DataID(d)).Size / (1 << 20)
		if w < 1 {
			w = 1
		}
		h.AddNet(w, pins...)
	}
	s.cfg.K = k
	// The run's memo (nil outside sweeps) returns the partition and the
	// Stats of the first computation of this hypergraph, so the charged
	// cost is the same whether or not it was computed here.
	part, stats, err := view.Partitions().Partition(h, s.cfg, s.clique)
	if err != nil {
		panic(fmt.Sprintf("sched: %s partition failed: %v", s.name, err))
	}
	if s.chargeCost {
		view.ChargeStatic(stats.Ops)
	}
	for t := 0; t < inst.NumTasks(); t++ {
		g := part[t]
		s.queues[g] = append(s.queues[g], taskgraph.TaskID(t))
	}
}

// PopTask applies Ready to the local queue, stealing half of the most
// loaded GPU's remaining tasks first if the local queue is empty.
func (s *HMetisR) PopTask(gpu int) (taskgraph.TaskID, bool) {
	if len(s.queues[gpu]) == 0 {
		if !s.steal || !stealHalf(s.queues, gpu) {
			return taskgraph.NoTask, false
		}
	}
	i := readyPick(s.view, gpu, s.queues[gpu], s.readyWindow, false)
	if i < 0 {
		return taskgraph.NoTask, false
	}
	t := s.queues[gpu][i]
	s.queues[gpu] = removeAt(s.queues[gpu], i)
	return t, true
}

// GPUDropped redistributes the dead GPU's partition to the survivors.
// Stealing alone cannot drain it: stealHalf only splits queues of two or
// more tasks, and the no-steal variants have no stealing at all.
func (s *HMetisR) GPUDropped(gpu int, requeue []taskgraph.TaskID) {
	requeueToAlive(s.view, s.queues, gpu, requeue, nil)
}
