package sim

import (
	"context"
	"fmt"
	"time"

	"memsched/internal/fault"
	"memsched/internal/hypergraph"
	"memsched/internal/platform"
	"memsched/internal/taskgraph"
)

// DefaultWindowSize is the default depth of the per-GPU task window (the
// number of tasks prefetched ahead of the one executing), mirroring the
// small prefetch depth of StarPU workers.
const DefaultWindowSize = 4

// DefaultNsPerOp converts abstract scheduler operations into simulated
// scheduling time for the "+sched time" variants. It approximates one
// cache-unfriendly pointer-chasing operation of the original C schedulers.
const DefaultNsPerOp = 12.0

// Config parameterizes one simulation run.
type Config struct {
	// Platform describes the machine. Required.
	Platform platform.Platform
	// Scheduler decides task placement and ordering. Required.
	Scheduler Scheduler
	// Eviction chooses eviction victims. Required (use memory.NewLRU()
	// for the paper's default policy).
	Eviction EvictionPolicy
	// WindowSize is the per-GPU task window depth; 0 selects
	// DefaultWindowSize.
	WindowSize int
	// Seed feeds the deterministic random source used for tie-breaking.
	Seed int64
	// NsPerOp is the cost-model conversion from abstract scheduler
	// operations to nanoseconds of simulated scheduling time. Zero
	// disables cost charging (the paper's "no sched. time" and
	// "no part. time" variants).
	NsPerOp float64
	// RecordTrace keeps the full event trace in the Result.
	RecordTrace bool
	// Probe, when non-nil, receives every trace event as it is
	// committed, without the O(events) retention of RecordTrace. The
	// probe observes the identical sequence a recorded trace would
	// contain; see the Probe documentation for the contract.
	Probe Probe
	// Telemetry enables the engine-computed observability summary
	// (per-GPU idle-time attribution, bus and NVLink utilization,
	// occupancy high-water marks and timeline, reload counts), attached
	// as Result.Telemetry. It is pure observation: enabling it never
	// changes the simulated schedule or any other Result field.
	Telemetry bool
	// CheckInvariants replays the trace after the run and fails the run
	// on any violation (memory overflow, task started without inputs,
	// double loads). Implies RecordTrace.
	CheckInvariants bool
	// BusModel selects how concurrent host transfers contend on the
	// shared bus: BusFIFO (default) serializes them, BusFairShare
	// splits the bandwidth evenly among in-flight transfers, as
	// fluid-flow network simulators like the paper's SimGrid do.
	BusModel BusModel
	// Faults, when non-nil and non-empty, injects the deterministic
	// fault plan (GPU dropouts, transient transfer failures,
	// memory-pressure spikes) into the run; Result.Faults then carries
	// the degradation metrics. A nil or empty plan is a strict no-op:
	// the run is byte-identical to one configured without a plan.
	Faults *fault.Plan
	// Context, when non-nil, allows cancelling a long run: the event
	// loop polls it periodically and returns an error wrapping
	// Context.Err() once it is done. Nil means no cancellation.
	Context context.Context
	// Scratch, when non-nil, supplies reusable engine state so that
	// sequential runs (a sweep's cells, a benchmark loop) skip the per-run
	// transient allocations. Results are byte-identical with or without
	// it. A Scratch serves one run at a time: it is not safe for
	// concurrent use — give each worker goroutine its own.
	Scratch *Scratch
	// Partitions, when non-nil, is the partition memo the scheduler's
	// static phase reaches through RuntimeView.Partitions, so runs over
	// the same hypergraph partition it once. Results are byte-identical
	// with or without it. Nil partitions every run afresh.
	Partitions *hypergraph.Memo
}

// BusModel selects the contention model of the shared host bus.
type BusModel uint8

const (
	// BusFIFO serializes host transfers in request order.
	BusFIFO BusModel = iota
	// BusFairShare progresses all in-flight host transfers concurrently,
	// each receiving an equal share of the bus bandwidth.
	BusFairShare
)

// String returns the model mnemonic.
func (m BusModel) String() string {
	if m == BusFairShare {
		return "fair-share"
	}
	return "fifo"
}

// GPUStats aggregates per-GPU counters of one run.
type GPUStats struct {
	// Tasks is the number of tasks executed by this GPU.
	Tasks int
	// Loads is the number of data transfers into this GPU.
	Loads int
	// Evictions is the number of data evictions from this GPU.
	Evictions int
	// BytesIn is the volume transferred into this GPU over the shared
	// host bus.
	BytesIn int64
	// PeerLoads is the number of NVLink transfers into this GPU.
	PeerLoads int
	// PeerBytesIn is the volume received over NVLink.
	PeerBytesIn int64
	// BytesOut is the volume of task outputs written back to the host
	// by this GPU.
	BytesOut int64
	// BusyTime is the total kernel execution time on this GPU.
	BusyTime time.Duration
}

// Result is the outcome of one simulation run.
type Result struct {
	// SchedulerName and InstanceName identify the run.
	SchedulerName string
	InstanceName  string
	// NumGPUs is the number of GPUs of the platform.
	NumGPUs int
	// Makespan is the completion time of the last task, including any
	// static scheduling phase.
	Makespan time.Duration
	// GFlops is the achieved throughput TotalFlops/Makespan/1e9, the
	// y-axis of the paper's performance figures.
	GFlops float64
	// TotalFlops is the total work of the instance.
	TotalFlops float64
	// WorkingSetBytes is the footprint of all distinct data.
	WorkingSetBytes int64
	// BytesTransferred is the total volume moved over the shared bus,
	// the y-axis of the paper's transfer figures.
	BytesTransferred int64
	// PeerBytesTransferred is the total volume moved GPU-to-GPU over
	// NVLink (zero unless the platform enables the NVLink extension).
	PeerBytesTransferred int64
	// BytesWrittenBack is the total volume of task outputs returned to
	// host memory over the shared bus (zero unless the instance defines
	// task outputs).
	BytesWrittenBack int64
	// Loads and Evictions are machine-wide counts. Loads includes both
	// host and peer loads.
	Loads     int
	Evictions int
	// StaticCost is the simulated duration of the static scheduling
	// phase (hypergraph partitioning, HFP packing).
	StaticCost time.Duration
	// DynamicCost is the total simulated time charged by dynamic
	// scheduling decisions across all GPUs.
	DynamicCost time.Duration
	// ChargedOps is the total abstract operations charged by the
	// scheduler, whether or not they were converted into delay.
	ChargedOps int64
	// Events is the number of discrete events the simulation processed,
	// the denominator of the harness's events/s gauge.
	Events int64
	// GPU holds the per-GPU counters.
	GPU []GPUStats
	// LoadsPerData counts, for every data item, how many transfers
	// (host or peer) brought it into some GPU over the whole run: the
	// per-data pathology profile (an EAGER run under memory pressure
	// shows every B column reloaded once per block-row of A).
	LoadsPerData []int
	// Trace is the event log when Config.RecordTrace is set.
	Trace []TraceEvent
	// Telemetry is the observability summary when Config.Telemetry is
	// set: idle-time attribution, bus utilization, occupancy, reloads.
	Telemetry *Telemetry
	// Faults carries the degradation metrics of a faulty run. It is nil
	// on fault-free runs (no plan, or an empty plan), keeping fault-free
	// results identical to runs configured without a plan.
	Faults *FaultStats
}

// String summarizes the result on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s on %s: %.0f GFlop/s, %.1f MB transferred, makespan %v",
		r.SchedulerName, r.InstanceName, r.GFlops,
		float64(r.BytesTransferred)/platform.MB, r.Makespan)
}

// TraceKind distinguishes trace events.
type TraceKind uint8

// Trace event kinds.
const (
	// TraceLoad records a data item becoming resident on a GPU.
	TraceLoad TraceKind = iota
	// TraceEvict records a data item leaving a GPU memory.
	TraceEvict
	// TraceStart records a task starting on a GPU.
	TraceStart
	// TraceEnd records a task completing on a GPU.
	TraceEnd
	// TracePeerLoad records a data item arriving over NVLink from a
	// peer GPU.
	TracePeerLoad
	// TraceWriteBack records a task's output finishing its transfer
	// back to host memory.
	TraceWriteBack
	// TraceDropout records a permanent GPU loss (fault injection).
	TraceDropout
	// TraceTaskKill records a task killed mid-execution by a dropout.
	TraceTaskKill
	// TraceDataLost records a resident replica lost to a dropout.
	TraceDataLost
	// TraceRetry records one failed attempt of a transient transfer
	// failure; the transfer is charged the retry backoff and succeeds.
	TraceRetry
	// TracePressureOn and TracePressureOff bracket a memory-pressure
	// spike shrinking a GPU's memory budget.
	TracePressureOn
	TracePressureOff
)

// String returns the mnemonic of the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceLoad:
		return "LOAD"
	case TraceEvict:
		return "EVICT"
	case TraceStart:
		return "START"
	case TraceEnd:
		return "END"
	case TracePeerLoad:
		return "PEER"
	case TraceWriteBack:
		return "WRITE"
	case TraceDropout:
		return "DROP"
	case TraceTaskKill:
		return "KILL"
	case TraceDataLost:
		return "LOST"
	case TraceRetry:
		return "RETRY"
	case TracePressureOn:
		return "PRESS+"
	case TracePressureOff:
		return "PRESS-"
	}
	return "?"
}

// TraceEvent is one entry of the simulation event log.
type TraceEvent struct {
	// At is the simulated time of the event.
	At time.Duration
	// Kind is the event type.
	Kind TraceKind
	// GPU is the accelerator concerned.
	GPU int
	// Task is set for TraceStart/TraceEnd, taskgraph.NoTask otherwise.
	Task taskgraph.TaskID
	// Data is set for TraceLoad/TraceEvict, taskgraph.NoData otherwise.
	Data taskgraph.DataID
}

// String formats the event for trace dumps.
func (e TraceEvent) String() string {
	switch e.Kind {
	case TraceLoad, TraceEvict, TracePeerLoad, TraceDataLost:
		return fmt.Sprintf("%12v gpu%d %-5s data %d", e.At, e.GPU, e.Kind, e.Data)
	case TraceRetry:
		// A retry names the data being loaded, or the task whose output
		// write-back failed.
		if e.Data != taskgraph.NoData {
			return fmt.Sprintf("%12v gpu%d %-5s data %d", e.At, e.GPU, e.Kind, e.Data)
		}
		return fmt.Sprintf("%12v gpu%d %-5s task %d", e.At, e.GPU, e.Kind, e.Task)
	case TraceDropout, TracePressureOn, TracePressureOff:
		return fmt.Sprintf("%12v gpu%d %-5s", e.At, e.GPU, e.Kind)
	default:
		return fmt.Sprintf("%12v gpu%d %-5s task %d", e.At, e.GPU, e.Kind, e.Task)
	}
}
