// Package sim is a deterministic discrete-event simulator of the multi-GPU
// platform of the paper: K GPUs with bounded private memories connected to
// host memory through a single shared PCI bus (Figure 2), driven by a
// StarPU-like runtime with per-GPU task windows, data prefetching and a
// pluggable eviction policy.
//
// The simulator substitutes for the paper's Tesla V100 testbed and for its
// StarPU-over-SimGrid simulations (see DESIGN.md §2): it reproduces the
// mechanics every scheduling strategy of the paper interacts with — task
// mapping, task ordering, data loads, evictions, transfer/computation
// overlap and bus contention — with a virtual int64-nanosecond clock.
package sim

import (
	"math/rand"
	"time"

	"memsched/internal/hypergraph"
	"memsched/internal/platform"
	"memsched/internal/taskgraph"
)

// Scheduler decides which task each GPU processes next. Implementations
// live in internal/sched. PopTask is pull-based, as in StarPU: the runtime
// calls it whenever a GPU has room in its task window.
//
// All methods are invoked from the single simulation goroutine; no
// synchronization is required.
type Scheduler interface {
	// Name identifies the strategy ("EAGER", "DMDAR", "DARTS+LUF", ...).
	Name() string

	// Init is called once before the simulation starts. Static phases
	// (hypergraph partitioning, HFP packing, DMDA allocation) run here
	// and may charge their cost through RuntimeView.ChargeStatic.
	Init(inst *taskgraph.Instance, view RuntimeView)

	// PopTask returns the next task GPU gpu should prefetch and execute,
	// or ok=false if the scheduler currently has no task for this GPU.
	// A scheduler that returned ok=false is polled again after every
	// subsequent simulation event, so strategies whose task supply can
	// be replenished (task stealing, DARTS planned-task revocation)
	// need no explicit wake-up.
	PopTask(gpu int) (t taskgraph.TaskID, ok bool)

	// TaskDone notifies that a previously popped task finished on gpu.
	TaskDone(gpu int, t taskgraph.TaskID)

	// DataLoaded notifies that data d became resident on gpu.
	DataLoaded(gpu int, d taskgraph.DataID)

	// DataEvicted notifies that data d was evicted from gpu.
	DataEvicted(gpu int, d taskgraph.DataID)
}

// DropoutHandler is the optional recovery hook of a Scheduler. When a
// fault plan drops a GPU, the engine first invalidates the lost replicas
// (each reported through DataEvicted) and then calls GPUDropped with the
// tasks that GPU had popped but not completed: the killed running task
// (if any) followed by the window tasks in pop order. The scheduler must
// make these tasks poppable again by surviving GPUs; RuntimeView.Alive
// reports which GPUs those are. A scheduler without this hook strands
// the tasks and the run fails with a stall diagnostic.
type DropoutHandler interface {
	GPUDropped(gpu int, requeue []taskgraph.TaskID)
}

// EvictionPolicy chooses which resident data to evict when a GPU memory is
// full. The runtime guarantees that candidates is non-empty, sorted by
// DataID, and contains only unpinned resident data (data used by the
// running task, by the head task of the window, or currently in transfer
// is never offered for eviction).
type EvictionPolicy interface {
	// Name identifies the policy ("LRU", "LUF", ...).
	Name() string

	// Init is called once before the simulation starts.
	Init(inst *taskgraph.Instance, view RuntimeView)

	// Loaded notifies that d became resident on gpu.
	Loaded(gpu int, d taskgraph.DataID)

	// Used notifies that a task starting on gpu reads d.
	Used(gpu int, d taskgraph.DataID)

	// Victim returns the candidate to evict. The returned id must be an
	// element of candidates.
	Victim(gpu int, candidates []taskgraph.DataID) taskgraph.DataID

	// Evicted notifies that d was evicted from gpu.
	Evicted(gpu int, d taskgraph.DataID)
}

// RuntimeView is the read-mostly interface the runtime exposes to
// schedulers and eviction policies. It mirrors the information a StarPU
// scheduling policy can query at runtime.
type RuntimeView interface {
	// Instance returns the problem instance being executed.
	Instance() *taskgraph.Instance

	// Platform returns the simulated machine description.
	Platform() platform.Platform

	// Now returns the current simulated time.
	Now() time.Duration

	// Alive reports whether gpu has not suffered a permanent dropout.
	// Always true on fault-free runs. Schedulers must not route tasks to
	// a dead GPU; its PopTask is never called again.
	Alive(gpu int) bool

	// Available reports whether d needs no new transfer for gpu: it is
	// in the GPU's memory, or a transfer towards the GPU is queued or in
	// flight on the bus.
	Available(gpu int, d taskgraph.DataID) bool

	// MissingInputs returns how many inputs of t are not Available on
	// gpu, i.e. how many new transfers running t there would require.
	MissingInputs(gpu int, t taskgraph.TaskID) int

	// Rand returns the deterministic random source of this simulation,
	// used for the tie-breaking the paper's heuristics require.
	Rand() *rand.Rand

	// Charge adds ops abstract scheduler operations to the cost of the
	// scheduling decision in progress. During PopTask(gpu) the cost
	// delays the earliest start time of the popped task on that GPU;
	// outside PopTask it is accounted as static cost. With a zero
	// Config.NsPerOp charges are recorded but add no delay.
	Charge(ops int64)

	// ChargeStatic adds ops abstract operations to the one-time cost
	// paid before any task may start (partitioning and packing phases).
	ChargeStatic(ops int64)

	// Partitions returns the partition memo of the run (Config.
	// Partitions), or nil. A nil *hypergraph.Memo is usable: it
	// partitions every request directly.
	Partitions() *hypergraph.Memo
}
