package sched

import (
	"sort"

	"memsched/internal/sim"
	"memsched/internal/taskgraph"
)

// MHFP implements the paper's multi-GPU Hierarchical Fair Packing
// (§IV-C, Algorithm 4). HFP gathers tasks sharing many input data into
// packages whose inputs fit in GPU memory, then merges packages by data
// affinity until K remain. Package loads are then balanced by moving
// tasks from the tail of the heaviest package to the lightest, and the
// runtime adds Ready reordering and task stealing.
type MHFP struct {
	base
	chargeCost  bool
	readyWindow int
	steal       bool
	queues      [][]taskgraph.TaskID
	view        sim.RuntimeView
	name        string
}

// NewMHFP returns a Factory for mHFP. chargeCost selects whether the
// packing cost is charged to the simulated clock (the paper plots "mHFP"
// and "mHFP no sched. time"). readyWindow bounds the Ready scan
// (0 selects DefaultReadyWindow).
func NewMHFP(chargeCost bool, readyWindow int) Factory {
	return NewMHFPSteal(chargeCost, readyWindow, true)
}

// NewMHFPSteal is NewMHFP with task stealing switchable, for the
// stealing ablation bench.
func NewMHFPSteal(chargeCost bool, readyWindow int, steal bool) Factory {
	name := "mHFP"
	if !chargeCost {
		name = "mHFP no sched. time"
	}
	if !steal {
		name += " no steal"
	}
	if readyWindow == 0 {
		readyWindow = DefaultReadyWindow
	}
	return func() sim.Scheduler {
		return &MHFP{chargeCost: chargeCost, readyWindow: readyWindow, steal: steal, name: name}
	}
}

// Name returns "mHFP" or "mHFP no sched. time".
func (s *MHFP) Name() string { return s.name }

// hfpPackage is one package of tasks under construction.
type hfpPackage struct {
	tasks  []taskgraph.TaskID
	inputs []taskgraph.DataID // distinct, in order of first appearance
	bytes  int64              // total footprint of inputs
	flops  float64
	alive  bool
}

// hfpCostPerPair models the cost the paper's HFP implementation pays per
// candidate package pair at every merge step: it recomputes package
// affinities from scratch, which makes the packing time cubic in the
// number of tasks and "prohibitively large" for big working sets (§V-B).
// Our implementation uses an incremental index instead, so we charge the
// original's operation count rather than our own.
const hfpCostPerPair = 2

// Init runs the two HFP packing phases and the load-balancing step of
// Algorithm 4, producing one task queue per GPU.
func (s *MHFP) Init(inst *taskgraph.Instance, view sim.RuntimeView) {
	s.view = view
	k := view.Platform().NumGPUs
	mem := view.Platform().MemoryBytes

	n := inst.NumTasks()
	pkgs := make([]hfpPackage, n)
	for i := range pkgs {
		t := taskgraph.TaskID(i)
		in := inst.Inputs(t)
		p := &pkgs[i]
		p.tasks = []taskgraph.TaskID{t}
		// Capped at its length, so a merge's append copies rather than
		// writing into the instance.
		p.inputs = in[:len(in):len(in)]
		p.flops = inst.Task(t).Flops
		p.alive = true
		for _, d := range in {
			p.bytes += inst.Data(d).Size
		}
	}
	// data -> packages containing it, for fast affinity lookup. Entries
	// of merged-away packages are dropped lazily, while a list is walked;
	// every live package holding d is listed exactly once.
	dataIdx := make([][]int32, inst.NumData())
	for d := range dataIdx {
		cons := inst.Consumers(taskgraph.DataID(d))
		list := make([]int32, len(cons))
		for i, t := range cons {
			list[i] = int32(t)
		}
		dataIdx[d] = list
	}
	alive := len(pkgs)
	var chargedOps int64

	// Scratch for bestPartner: shared[qi] accumulates the bytes package
	// qi shares with the probed package, valid while seen[qi] == epoch;
	// touched lists the packages marked in this epoch. used[qi] == round
	// marks the packages already merged in the current round.
	shared := make([]int64, n)
	seen := make([]int32, n)
	touched := make([]int32, 0, n)
	var epoch int32
	used := make([]int32, n)
	round := int32(0)

	// bestPartner returns the live package sharing the most input bytes
	// with package pi that was not merged this round and, when bounded,
	// whose union with pi fits in memory. Ties go to fewer tasks, then to
	// the lower index, so the visiting order is irrelevant.
	bestPartner := func(pi int, bounded bool) (int, int64) {
		epoch++
		touched = touched[:0]
		for _, d := range pkgs[pi].inputs {
			sz := inst.Data(d).Size
			list := dataIdx[d]
			w := 0
			for _, qi := range list {
				if !pkgs[qi].alive {
					continue
				}
				list[w] = qi
				w++
				if int(qi) == pi {
					continue
				}
				if seen[qi] != epoch {
					seen[qi] = epoch
					shared[qi] = 0
					touched = append(touched, qi)
				}
				shared[qi] += sz
			}
			dataIdx[d] = list[:w]
		}
		best, bestShared := -1, int64(-1)
		for _, q := range touched {
			qi := int(q)
			sh := shared[qi]
			if used[qi] == round || bounded && pkgs[pi].bytes+pkgs[qi].bytes-sh > mem {
				continue
			}
			better := best < 0 || sh > bestShared
			if !better && sh == bestShared {
				nq, nb := len(pkgs[qi].tasks), len(pkgs[best].tasks)
				better = nq < nb || (nq == nb && qi < best)
			}
			if better {
				best, bestShared = qi, sh
			}
		}
		return best, bestShared
	}

	// has[d] == mark while d is an input of the package being grown.
	has := make([]int32, inst.NumData())
	var mark int32
	merge := func(pi, qi int) {
		p, q := &pkgs[pi], &pkgs[qi]
		p.tasks = append(p.tasks, q.tasks...)
		p.flops += q.flops
		mark++
		for _, d := range p.inputs {
			has[d] = mark
		}
		for _, d := range q.inputs {
			if has[d] != mark {
				p.inputs = append(p.inputs, d)
				p.bytes += inst.Data(d).Size
				dataIdx[d] = append(dataIdx[d], int32(pi))
			}
		}
		q.alive = false
		q.tasks = nil
		q.inputs = nil
		alive--
		// Cost of one merge step in the original implementation: all
		// pairs re-examined.
		chargedOps += int64(alive) * int64(alive) * hfpCostPerPair
	}

	// byAscSize returns live package ids ordered by task count.
	byAscSize := func() []int {
		ids := make([]int, 0, alive)
		for i := range pkgs {
			if pkgs[i].alive {
				ids = append(ids, i)
			}
		}
		sort.Slice(ids, func(a, b int) bool {
			if len(pkgs[ids[a]].tasks) != len(pkgs[ids[b]].tasks) {
				return len(pkgs[ids[a]].tasks) < len(pkgs[ids[b]].tasks)
			}
			return ids[a] < ids[b]
		})
		return ids
	}

	// mergeRounds performs hierarchical merge rounds: in each round the
	// packages are visited from fewest tasks to most, each merging with
	// its best-affinity feasible partner not yet merged this round, so
	// the package count roughly halves per level. bounded selects
	// whether the memory bound applies (phase 1) or not (phase 2).
	mergeRounds := func(bounded bool) {
		for alive > k {
			round++
			mergedAny := false
			for _, pi := range byAscSize() {
				if alive <= k {
					return
				}
				if !pkgs[pi].alive || used[pi] == round {
					continue
				}
				qi, sh := bestPartner(pi, bounded)
				if qi < 0 || sh < 0 {
					continue
				}
				merge(pi, qi)
				used[pi] = round
				mergedAny = true
			}
			if !mergedAny {
				return
			}
		}
	}
	// Phase 1: merge while the union of inputs fits in GPU memory.
	mergeRounds(true)
	// Phase 2: bind packages with high affinity until K remain,
	// ignoring the memory bound.
	mergeRounds(false)
	// If affinity alone could not reach K packages (disjoint data),
	// merge the smallest packages directly.
	for alive > k {
		ids := byAscSize()
		merge(ids[0], ids[1])
	}
	if s.chargeCost {
		view.ChargeStatic(chargedOps)
	}

	// Collect final packages.
	final := make([]*hfpPackage, 0, k)
	for i := range pkgs {
		if pkgs[i].alive {
			final = append(final, &pkgs[i])
		}
	}
	// Load balancing (Algorithm 4): move tasks from the tail of the
	// heaviest package to the lightest until no package exceeds the
	// average load by more than one task.
	if len(final) > 1 {
		var totalFlops float64
		maxTaskFlops := 0.0
		for _, p := range final {
			totalFlops += p.flops
		}
		for _, t := range inst.Tasks() {
			if t.Flops > maxTaskFlops {
				maxTaskFlops = t.Flops
			}
		}
		avg := totalFlops / float64(len(final))
		for {
			sort.Slice(final, func(a, b int) bool { return final[a].flops > final[b].flops })
			pmax, pmin := final[0], final[len(final)-1]
			if pmax.flops <= avg+maxTaskFlops || len(pmax.tasks) <= 1 {
				break
			}
			moved := false
			for pmax.flops > avg && pmin.flops < avg && len(pmax.tasks) > 1 {
				last := pmax.tasks[len(pmax.tasks)-1]
				f := inst.Task(last).Flops
				pmax.tasks = pmax.tasks[:len(pmax.tasks)-1]
				pmax.flops -= f
				pmin.tasks = append(pmin.tasks, last)
				pmin.flops += f
				moved = true
			}
			if !moved {
				break
			}
		}
	}
	s.queues = make([][]taskgraph.TaskID, k)
	for i, p := range final {
		s.queues[i] = p.tasks
	}
}

// PopTask applies Ready to the local queue, stealing half of the most
// loaded GPU's remaining tasks first if the local queue is empty.
func (s *MHFP) PopTask(gpu int) (taskgraph.TaskID, bool) {
	if len(s.queues[gpu]) == 0 {
		if !s.steal || !stealHalf(s.queues, gpu) {
			return taskgraph.NoTask, false
		}
	}
	i := readyPick(s.view, gpu, s.queues[gpu], s.readyWindow, true)
	if i < 0 {
		return taskgraph.NoTask, false
	}
	t := s.queues[gpu][i]
	s.queues[gpu] = removeAt(s.queues[gpu], i)
	return t, true
}

// GPUDropped redistributes the dead GPU's package to the survivors (the
// packages' internal order is preserved task by task; see GPUDropped on
// HMetisR for why stealing alone cannot drain a dead queue).
func (s *MHFP) GPUDropped(gpu int, requeue []taskgraph.TaskID) {
	requeueToAlive(s.view, s.queues, gpu, requeue, nil)
}
