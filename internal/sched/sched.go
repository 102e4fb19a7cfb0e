// Package sched implements the five scheduling strategies compared in the
// paper (§IV): the EAGER baseline, StarPU's DMDAR, hMETIS+R (hypergraph
// partitioning with Ready reordering and task stealing), mHFP (multi-GPU
// Hierarchical Fair Packing), and DARTS (Data-Aware Reactive Task
// Scheduling) with its LUF eviction policy and the 3inputs/OPTI/threshold
// variants.
//
// Schedulers are single-use: build a fresh one (through a Factory) for
// every simulation run.
package sched

import (
	"memsched/internal/sim"
	"memsched/internal/taskgraph"
)

// DefaultReadyWindow is the default bound on how many queued tasks the
// Ready reordering examines per decision. StarPU's dmdar can only reorder
// a limited number of tasks ahead of the computation (the paper leans on
// this in SV-C/SV-D); an unbounded scan would make DMDAR insensitive to
// the task submission order, contradicting Figure 9.
const DefaultReadyWindow = 256

// Factory builds a fresh scheduler for one run. Simulation sweeps run the
// same strategy on many instances; each run needs its own state.
//
// Factories must be safe for concurrent use: the parallel experiment
// harness (internal/expr) invokes the same Factory from many worker
// goroutines, so a Factory must not mutate captured variables — resolve
// defaults before returning the closure.
type Factory func() sim.Scheduler

// base provides no-op notification hooks for schedulers that do not track
// runtime events.
type base struct{}

func (base) TaskDone(gpu int, t taskgraph.TaskID)    {}
func (base) DataLoaded(gpu int, d taskgraph.DataID)  {}
func (base) DataEvicted(gpu int, d taskgraph.DataID) {}

// readyPick implements the paper's Ready reordering heuristic
// (Algorithm 2): among the tasks of queue, return the index of a task
// requiring the fewest new data transfers on gpu, counting data already
// resident or in flight as present. Ties are broken uniformly at random,
// as the arbitrary ordering of StarPU's deque does: on the 2D product
// this is what lets several block-rows of A become resident together and
// be reused across rows. window bounds how many queue entries are
// examined (0 means the whole queue). stableTies keeps the first minimum
// instead (HFP packages carry a deliberate internal order that Ready must
// preserve: "packages are stored as lists so that we do not modify the
// order of tasks within packages", SIV-C). It charges one operation per
// input examined and returns -1 only for an empty queue.
func readyPick(view sim.RuntimeView, gpu int, queue []taskgraph.TaskID, window int, stableTies bool) int {
	if len(queue) == 0 {
		return -1
	}
	limit := len(queue)
	if window > 0 && window < limit {
		limit = window
	}
	inst := view.Instance()
	rng := view.Rand()
	best, bestMissing, ties := -1, int(^uint(0)>>1), 0
	var ops int64
	for i := 0; i < limit; i++ {
		t := queue[i]
		ops += int64(len(inst.Inputs(t)))
		switch missing := view.MissingInputs(gpu, t); {
		case missing < bestMissing:
			best, bestMissing, ties = i, missing, 1
		case missing == bestMissing:
			if stableTies {
				break
			}
			ties++
			if rng.Intn(ties) == 0 {
				best = i
			}
		}
	}
	view.Charge(ops)
	return best
}

// stealHalf implements the task-stealing rule shared by hMETIS+R and mHFP
// (§IV-B): an idle GPU steals half of the remaining tasks of the most
// loaded GPU, taking them from the tail of its list. It moves the stolen
// tasks into queues[thief] and reports whether anything was stolen.
func stealHalf(queues [][]taskgraph.TaskID, thief int) bool {
	richest, richestLoad := -1, 1 // require at least 2 tasks to split
	for k := range queues {
		if k == thief {
			continue
		}
		if len(queues[k]) > richestLoad {
			richest, richestLoad = k, len(queues[k])
		}
	}
	if richest < 0 {
		return false
	}
	n := richestLoad / 2
	cut := richestLoad - n
	stolen := queues[richest][cut:]
	queues[richest] = queues[richest][:cut]
	queues[thief] = append(queues[thief], stolen...)
	return true
}

// removeAt deletes element i of q preserving order. Pops land within
// the Ready window near the head, so shifting the i-element prefix one
// slot right and dropping the head costs O(i), not O(len(q)).
func removeAt(q []taskgraph.TaskID, i int) []taskgraph.TaskID {
	copy(q[1:i+1], q[:i])
	return q[1:]
}

// requeueToAlive is the shared dropout recovery of the per-GPU-queue
// schedulers: the dead GPU's unserved queue plus the engine-reported
// requeue list (its killed and windowed tasks) are redistributed to the
// surviving GPUs, each task to the currently shortest queue. Explicit
// redistribution is required even for the stealing schedulers: stealHalf
// only splits queues holding at least two tasks, so a dead queue with a
// single task would never be drained by a thief. rec, when non-nil,
// records one DecisionRequeue per moved task.
func requeueToAlive(view sim.RuntimeView, queues [][]taskgraph.TaskID, dead int, requeue []taskgraph.TaskID, rec DecisionRecorder) {
	pending := make([]taskgraph.TaskID, 0, len(requeue)+len(queues[dead]))
	pending = append(pending, requeue...)
	pending = append(pending, queues[dead]...)
	queues[dead] = nil
	for _, t := range pending {
		best := -1
		for g := range queues {
			if g == dead || !view.Alive(g) {
				continue
			}
			if best < 0 || len(queues[g]) < len(queues[best]) {
				best = g
			}
		}
		if best < 0 {
			// No survivor (the engine's plan validation prevents this);
			// the stall diagnostic will name the stranded tasks.
			return
		}
		queues[best] = append(queues[best], t)
		if rec != nil {
			rec.Record(Decision{Kind: DecisionRequeue, GPU: best, Victim: dead, Task: t, Data: taskgraph.NoData})
		}
	}
}
