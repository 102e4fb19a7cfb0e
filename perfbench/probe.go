package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"memsched/internal/memory"
	"memsched/internal/sched"
	"memsched/internal/sim"
	"memsched/internal/taskgraph"
)

// span is one timed call at a layer boundary. Spans of one cell share
// the cell key as ID; spans of one fleet job share its trace ID. Calls
// too frequent to record one by one (scheduler pops, evictions) are
// folded into one span per cell carrying Count and Busy.
type span struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	// Start and End are nanoseconds since the run began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Count int64 `json:"count,omitempty"`
	Busy  int64 `json:"busy_ns,omitempty"`
	// AllocBytes is the heap allocated during the call (static
	// scheduler phases only).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// at converts a wall-clock instant to the log's time base.
func (l *spanLog) at(t time.Time) int64 { return t.Sub(l.t0).Nanoseconds() }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// isPartitioner reports whether a strategy's Init runs the hypergraph
// partitioner (hMETIS+R and its no-partition-time variant).
func isPartitioner(label string) bool { return strings.HasPrefix(label, "hMETIS") }

// isPacker reports whether a strategy's Init runs mHFP packing.
func isPacker(label string) bool { return strings.HasPrefix(label, "mHFP") }

// layerTimes totals the per-layer work of a traced sweep. Traced sweeps
// run one worker, so the simulation goroutine is the only writer while
// the sweep runs.
type layerTimes struct {
	build                         time.Duration
	partition, hfpInit, otherInit time.Duration
	partitions                    int
	partitionAlloc, hfpAlloc      uint64
	pops, victims                 int64
	popTime, victimTime           time.Duration
	// simTime totals each cell's simulation, from Strategy.New to the
	// last TaskDone.
	simTime time.Duration
	log     *spanLog
	cellID  string // key of the cell in progress
}

// cellProbe observes one cell through the scheduler seam. Untraced it
// only timestamps the cell: from Strategy.New to the last TaskDone, the
// latency of one simulation. Traced (layers non-nil) it also times
// Init, every PopTask and every Victim.
type cellProbe struct {
	label       string
	start       time.Time
	tasks, done int
	// onDone receives the cell latency once the last task completes.
	onDone func(label string, d time.Duration)

	layers            *layerTimes
	pops, victims     int64
	popBusy, vicBusy  time.Duration
	firstPop, lastPop time.Time
}

// probeStrategy wraps s so every scheduler (and, traced, every eviction
// policy) it builds reports to a fresh cellProbe. The wrapper keeps the
// strategy's label and forwards the optional interfaces the engine and
// harness type-assert, so the simulated schedule is unchanged
// (TestTracedSweepMatchesPlain).
func probeStrategy(s sched.Strategy, onDone func(string, time.Duration), layers *layerTimes) sched.Strategy {
	inner, label := s.New, s.Label
	s.New = func() (sim.Scheduler, sim.EvictionPolicy) {
		p := &cellProbe{label: label, start: time.Now(), onDone: onDone, layers: layers}
		sch, pol := inner()
		if layers != nil {
			if pol == nil {
				// The harness substitutes LRU for a nil policy; wrapping
				// that same default lets its victims be timed too.
				pol = memory.NewLRU()
			}
			pol = &probedPolicy{inner: pol, p: p}
		}
		return wrapScheduler(sch, p), pol
	}
	return s
}

// wrapScheduler returns a probed scheduler that implements
// sim.DropoutHandler exactly when the wrapped one does: the engine
// changes its stall diagnostics on that assertion.
func wrapScheduler(inner sim.Scheduler, p *cellProbe) sim.Scheduler {
	w := &probedScheduler{inner: inner, p: p}
	if dh, ok := inner.(sim.DropoutHandler); ok {
		return &probedDropout{probedScheduler: w, dh: dh}
	}
	return w
}

type probedScheduler struct {
	inner sim.Scheduler
	p     *cellProbe
}

func (w *probedScheduler) Name() string { return w.inner.Name() }

func (w *probedScheduler) Init(inst *taskgraph.Instance, view sim.RuntimeView) {
	w.p.tasks = inst.NumTasks()
	l := w.p.layers
	if l == nil {
		w.inner.Init(inst, view)
		return
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	w.inner.Init(inst, view)
	t1 := time.Now()
	runtime.ReadMemStats(&m1)
	d, alloc := t1.Sub(t0), m1.TotalAlloc-m0.TotalAlloc
	name := "sched.init"
	switch {
	case isPartitioner(w.p.label):
		name = "hypergraph.partition"
		l.partition += d
		l.partitions++
		l.partitionAlloc += alloc
	case isPacker(w.p.label):
		name = "sched.hfp_init"
		l.hfpInit += d
		l.hfpAlloc += alloc
	default:
		l.otherInit += d
	}
	l.log.add(span{ID: l.cellID, Name: name, Parent: "cell", Start: l.log.at(t0), End: l.log.at(t1), AllocBytes: alloc})
}

func (w *probedScheduler) PopTask(gpu int) (taskgraph.TaskID, bool) {
	if w.p.layers == nil {
		return w.inner.PopTask(gpu)
	}
	t0 := time.Now()
	t, ok := w.inner.PopTask(gpu)
	t1 := time.Now()
	if w.p.pops == 0 {
		w.p.firstPop = t0
	}
	w.p.pops++
	w.p.popBusy += t1.Sub(t0)
	w.p.lastPop = t1
	w.p.layers.pops++
	w.p.layers.popTime += t1.Sub(t0)
	return t, ok
}

func (w *probedScheduler) TaskDone(gpu int, t taskgraph.TaskID) {
	w.inner.TaskDone(gpu, t)
	w.p.done++
	if w.p.done == w.p.tasks {
		w.p.finish()
	}
}

func (w *probedScheduler) DataLoaded(gpu int, d taskgraph.DataID)  { w.inner.DataLoaded(gpu, d) }
func (w *probedScheduler) DataEvicted(gpu int, d taskgraph.DataID) { w.inner.DataEvicted(gpu, d) }

// SetDecisionRecorder forwards sched.DecisionLogger. Strategy.WithRecorder
// is its only caller and does nothing for schedulers that are not
// loggers, so forwarding to nothing is the same as not implementing it.
func (w *probedScheduler) SetDecisionRecorder(rec sched.DecisionRecorder) {
	if dl, ok := w.inner.(sched.DecisionLogger); ok {
		dl.SetDecisionRecorder(rec)
	}
}

type probedDropout struct {
	*probedScheduler
	dh sim.DropoutHandler
}

func (w *probedDropout) GPUDropped(gpu int, requeue []taskgraph.TaskID) {
	w.dh.GPUDropped(gpu, requeue)
}

// finish closes the cell once its last task completed.
func (p *cellProbe) finish() {
	if p.onDone != nil {
		p.onDone(p.label, time.Since(p.start))
	}
	l := p.layers
	if l == nil {
		return
	}
	now := time.Now()
	l.simTime += now.Sub(p.start)
	l.log.add(span{ID: l.cellID, Name: "sim.run", Parent: "cell", Start: l.log.at(p.start), End: l.log.at(now)})
	if p.pops > 0 {
		l.log.add(span{ID: l.cellID, Name: "sched.pops", Parent: "cell",
			Start: l.log.at(p.firstPop), End: l.log.at(p.lastPop), Count: p.pops, Busy: p.popBusy.Nanoseconds()})
	}
	if p.victims > 0 {
		l.log.add(span{ID: l.cellID, Name: "memory.victims", Parent: "cell",
			Start: l.log.at(p.start), End: l.log.at(now), Count: p.victims, Busy: p.vicBusy.Nanoseconds()})
	}
}

// probedPolicy times Victim, the eviction policy's decision call.
type probedPolicy struct {
	inner sim.EvictionPolicy
	p     *cellProbe
}

func (w *probedPolicy) Name() string { return w.inner.Name() }
func (w *probedPolicy) Init(inst *taskgraph.Instance, view sim.RuntimeView) {
	w.inner.Init(inst, view)
}
func (w *probedPolicy) Loaded(gpu int, d taskgraph.DataID)  { w.inner.Loaded(gpu, d) }
func (w *probedPolicy) Used(gpu int, d taskgraph.DataID)    { w.inner.Used(gpu, d) }
func (w *probedPolicy) Evicted(gpu int, d taskgraph.DataID) { w.inner.Evicted(gpu, d) }

func (w *probedPolicy) Victim(gpu int, candidates []taskgraph.DataID) taskgraph.DataID {
	t0 := time.Now()
	d := w.inner.Victim(gpu, candidates)
	dt := time.Since(t0)
	w.p.victims++
	w.p.vicBusy += dt
	w.p.layers.victims++
	w.p.layers.victimTime += dt
	return d
}
