package sim

import (
	"sort"
	"time"

	"memsched/internal/taskgraph"
)

// This file provides the trace-walk helpers behind the critical-path
// analyzer (internal/critpath): a recorded trace, indexed for the
// backward queries the walk needs — "which task occupied this GPU
// before t", "when did this input last arrive here", "was that arrival
// a reload", "was this transfer retried". Everything is rebuilt from
// Result.Trace alone, so any recorded run (live, journaled, or replayed
// from a capture) can be analyzed after the fact.

// Span is one occupancy interval of a GPU: a task's execution from its
// TraceStart to its TraceEnd, or to the TraceTaskKill that destroyed it
// mid-flight (Killed spans produced no completion; their compute time
// was lost to the fault).
type Span struct {
	Start, End time.Duration
	Task       taskgraph.TaskID
	Killed     bool
}

// Arrival is one data item becoming resident on a GPU (a TraceLoad or
// TracePeerLoad), annotated with what the walk needs to classify the
// wait it ended.
type Arrival struct {
	At time.Duration
	// Peer marks an NVLink arrival (TracePeerLoad).
	Peer bool
	// Reload marks a load of data previously evicted from the same GPU:
	// the transfer exists only because memory pressure threw the replica
	// away (the telemetry layer counts these the same way).
	Reload bool
	// Retried marks that the transfer suffered at least one transient
	// failure (a TraceRetry for the same GPU and data was recorded after
	// the previous arrival of this data there).
	Retried bool
}

// TraceIndex is a recorded trace reorganized for backward walks. Build
// one with IndexTrace; all slices are in ascending time order.
type TraceIndex struct {
	// Spans holds the per-GPU occupancy intervals.
	Spans [][]Span
	// Arrivals maps, per GPU, each data item to its arrival times there.
	Arrivals []map[taskgraph.DataID][]Arrival
	// WriteBacks lists completed output write-backs machine-wide.
	WriteBacks []TraceEvent
	// LastEnd is the time of the latest TraceEnd (zero when no task
	// completed); LastEndGPU/LastEndSpan locate its span. Ties are broken
	// by trace order: the last END recorded wins, matching the engine's
	// deterministic event order.
	LastEnd     time.Duration
	LastEndGPU  int
	LastEndSpan int
	// Tail holds every trace event strictly after LastEnd, in trace
	// order: the write-back or straggler-transfer drain that stretches
	// the makespan past the last completion.
	Tail []TraceEvent
	// LastEvent is the time of the final trace event.
	LastEvent time.Duration

	// kills lists, per task id, where that task's Killed spans sit in
	// Spans, in GPU order and then span order; nil when the trace has
	// no kills.
	kills [][]spanRef
}

// spanRef locates one span: Spans[gpu][span].
type spanRef struct{ gpu, span int32 }

// IndexTrace builds the walk index of a recorded trace. numGPUs is the
// platform GPU count (GPU ids in the trace are < numGPUs); an empty
// trace yields an index with empty tables.
func IndexTrace(trace []TraceEvent, numGPUs int) *TraceIndex {
	idx := &TraceIndex{
		Spans:       make([][]Span, numGPUs),
		Arrivals:    make([]map[taskgraph.DataID][]Arrival, numGPUs),
		LastEndGPU:  -1,
		LastEndSpan: -1,
	}
	for g := range idx.Arrivals {
		idx.Arrivals[g] = map[taskgraph.DataID][]Arrival{}
	}
	// One forward pass: open-span tracking per GPU, evicted-once flags
	// for reload classification, and a pending-retry flag per (GPU, data)
	// consumed by the next arrival of that data there.
	type openSpan struct {
		start time.Duration
		task  taskgraph.TaskID
		open  bool
	}
	running := make([]openSpan, numGPUs)
	evictedOnce := make([]map[taskgraph.DataID]bool, numGPUs)
	retried := make([]map[taskgraph.DataID]bool, numGPUs)
	for g := 0; g < numGPUs; g++ {
		evictedOnce[g] = map[taskgraph.DataID]bool{}
		retried[g] = map[taskgraph.DataID]bool{}
	}
	maxKilled := taskgraph.NoTask
	for _, ev := range trace {
		if ev.GPU < 0 || ev.GPU >= numGPUs {
			continue
		}
		switch ev.Kind {
		case TraceStart:
			running[ev.GPU] = openSpan{start: ev.At, task: ev.Task, open: true}
		case TraceEnd:
			if r := &running[ev.GPU]; r.open && r.task == ev.Task {
				idx.Spans[ev.GPU] = append(idx.Spans[ev.GPU], Span{Start: r.start, End: ev.At, Task: ev.Task})
				r.open = false
				idx.LastEnd = ev.At
				idx.LastEndGPU = ev.GPU
				idx.LastEndSpan = len(idx.Spans[ev.GPU]) - 1
			}
		case TraceTaskKill:
			if r := &running[ev.GPU]; r.open && r.task == ev.Task {
				idx.Spans[ev.GPU] = append(idx.Spans[ev.GPU], Span{Start: r.start, End: ev.At, Task: ev.Task, Killed: true})
				r.open = false
				maxKilled = max(maxKilled, ev.Task)
			}
		case TraceLoad, TracePeerLoad:
			idx.Arrivals[ev.GPU][ev.Data] = append(idx.Arrivals[ev.GPU][ev.Data], Arrival{
				At:      ev.At,
				Peer:    ev.Kind == TracePeerLoad,
				Reload:  evictedOnce[ev.GPU][ev.Data],
				Retried: retried[ev.GPU][ev.Data],
			})
			retried[ev.GPU][ev.Data] = false
		case TraceEvict, TraceDataLost:
			evictedOnce[ev.GPU][ev.Data] = true
		case TraceRetry:
			if ev.Data != taskgraph.NoData {
				retried[ev.GPU][ev.Data] = true
			}
		case TraceWriteBack:
			idx.WriteBacks = append(idx.WriteBacks, ev)
		}
		idx.LastEvent = ev.At
	}
	for _, ev := range trace {
		if ev.At > idx.LastEnd {
			idx.Tail = append(idx.Tail, ev)
		}
	}
	if maxKilled >= 0 {
		idx.kills = make([][]spanRef, maxKilled+1)
		for g, spans := range idx.Spans {
			for i, sp := range spans {
				if sp.Killed && sp.Task >= 0 {
					idx.kills[sp.Task] = append(idx.kills[sp.Task], spanRef{int32(g), int32(i)})
				}
			}
		}
	}
	return idx
}

// SpanBefore returns the index of the last span of GPU g ending at or
// before t, or -1 when g ran nothing before t.
func (idx *TraceIndex) SpanBefore(g int, t time.Duration) int {
	spans := idx.Spans[g]
	i := sort.Search(len(spans), func(i int) bool { return spans[i].End > t })
	return i - 1
}

// LastArrival returns the latest arrival of d on GPU g at or before t,
// or false when d never arrived there by t.
func (idx *TraceIndex) LastArrival(g int, d taskgraph.DataID, t time.Duration) (Arrival, bool) {
	arr := idx.Arrivals[g][d]
	i := sort.Search(len(arr), func(i int) bool { return arr[i].At > t })
	if i == 0 {
		return Arrival{}, false
	}
	return arr[i-1], true
}

// KillOf returns the latest Killed span of task t ending in (after,
// upTo], or false when the task was not killed in that window. On equal
// End the lowest GPU wins, then its earliest span. The index lists each
// task's killed spans, so the lookup is O(1) on a kill-free trace and
// otherwise linear in the kills of t alone (dropout plans kill at most
// one task per GPU).
func (idx *TraceIndex) KillOf(t taskgraph.TaskID, after, upTo time.Duration) (Span, int, bool) {
	var best Span
	bestGPU := -1
	if t < 0 || int(t) >= len(idx.kills) {
		return best, bestGPU, false
	}
	for _, ref := range idx.kills[t] {
		sp := idx.Spans[ref.gpu][ref.span]
		if sp.End > after && sp.End <= upTo && (bestGPU == -1 || sp.End > best.End) {
			best, bestGPU = sp, int(ref.gpu)
		}
	}
	return best, bestGPU, bestGPU >= 0
}
