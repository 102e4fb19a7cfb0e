package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"memsched/internal/fault"
	"memsched/internal/platform"
	"memsched/internal/taskgraph"
)

type eventKind uint8

const (
	evTransferDone eventKind = iota
	evPeerDone
	evTaskDone
	evWake
	evFairCheck
	evWriteDone
	// Fault administration (posted only for non-empty fault plans).
	evDropout    // permanent GPU loss; gpu = victim
	evPressureOn // memory-pressure spike start; gen = plan index
	evPressureOff
)

type event struct {
	at   time.Duration
	seq  int64 // FIFO tie-break for equal timestamps
	kind eventKind
	gpu  int
	task taskgraph.TaskID
	data taskgraph.DataID
	gen  int64 // fair-share bus check generation
}

type fetchReq struct {
	gpu  int
	data taskgraph.DataID
	// writeback marks a task-output transfer back to host memory: it
	// occupies the bus but creates no residency on arrival. data then
	// holds the producing task id for the trace.
	writeback bool
	bytes     int64 // transfer size for write-backs
}

// bufEntry is one task of a GPU window.
type bufEntry struct {
	task          taskgraph.TaskID
	earliestStart time.Duration // scheduler-cost gate
}

type gpuState struct {
	id            int
	resident      []bool // indexed by DataID
	residentBytes int64
	reservedBytes int64  // reserved for queued or in-flight transfers
	arriving      []bool // indexed by DataID
	arrivingPeer  []bool // indexed by DataID; arriving over NVLink, not the host bus
	// residentList mirrors the resident flags as an ascending id list, so
	// building eviction candidates costs O(resident) instead of a scan
	// over every data id of the instance.
	residentList []taskgraph.DataID
	buffer       []bufEntry
	running      taskgraph.TaskID
	pendingFetch []fetchReq // fetches waiting for memory space
	schedClock   time.Duration
	stats        GPUStats
	// NVLink receive channel (when the platform enables peer links):
	// one FIFO per destination GPU.
	nvq      reqQueue
	nvActive bool
	// Fault state: dead marks a permanent dropout, pressure the bytes
	// withheld by active memory-pressure spikes, runStart when the
	// running task began (for busy-time correction when it is killed).
	dead     bool
	pressure int64
	runStart time.Duration
}

type busState struct {
	q      reqQueue
	active bool
}

// engine implements RuntimeView and runs the event loop.
type engine struct {
	inst    *taskgraph.Instance
	plat    platform.Platform
	sched   Scheduler
	evict   EvictionPolicy
	window  int
	nsPerOp float64
	rng     *rand.Rand

	now       time.Duration
	seq       int64
	eq        eventQueue
	sc        *Scratch
	gpus      []gpuState
	bus       busState
	busModel  BusModel
	fair      fairBusState
	completed int

	loadsPerData []int

	// scheduler cost accounting
	inPop        bool
	popCharged   int64
	staticOps    int64
	dynamicOps   int64
	staticDelay  time.Duration
	dynamicDelay time.Duration

	recordTrace bool
	trace       []TraceEvent
	probe       Probe
	tel         *telemetryState // nil unless Config.Telemetry

	// Fault injection (all zero/nil for fault-free runs).
	faults              *fault.Plan
	faultRNG            *rand.Rand // nil unless the plan has transient failures
	fstats              *FaultStats
	requeued            []bool // dropout-requeued tasks not yet restarted
	recoveryOutstanding int
	recoveryStart       time.Duration

	// done marks completed tasks, for the stall diagnostic.
	done []bool

	ctx      context.Context // nil unless Config.Context
	loopIter int
}

// Run executes the instance under the given configuration and returns the
// aggregated result. It returns an error on an invalid configuration, a
// stalled simulation (scheduler deadlock), an unfinished instance, or an
// invariant violation when Config.CheckInvariants is set.
//
// Run is safe for concurrent use across independent runs: each call owns
// its engine, event heap and RNG (seeded from Config.Seed), and touches
// no package-level state. Concurrent callers must give each call its own
// Scheduler and EvictionPolicy instances and treat the shared
// *taskgraph.Instance as read-only, which schedulers are required to do
// (Instances are immutable once built). The parallel experiment harness
// in internal/expr relies on this, and TestFig3ParallelDeterministic
// verifies it under the race detector.
func Run(inst *taskgraph.Instance, cfg Config) (*Result, error) {
	if inst == nil {
		return nil, errors.New("sim: nil instance")
	}
	if err := cfg.Platform.Validate(); err != nil {
		return nil, err
	}
	if cfg.Scheduler == nil {
		return nil, errors.New("sim: nil scheduler")
	}
	if cfg.Eviction == nil {
		return nil, errors.New("sim: nil eviction policy")
	}
	window := cfg.WindowSize
	if window == 0 {
		window = DefaultWindowSize
	}
	if window < 1 {
		return nil, fmt.Errorf("sim: window size %d < 1", window)
	}
	// Progress guarantee: the running task and the head of the window
	// must be able to hold their inputs simultaneously.
	var maxFootprint int64
	for _, t := range inst.Tasks() {
		if fp := inst.TaskFootprint(t.ID); fp > maxFootprint {
			maxFootprint = fp
		}
	}
	if cfg.Platform.MemoryBytes < 2*maxFootprint {
		return nil, fmt.Errorf("sim: GPU memory %d B cannot hold two task footprints (max footprint %d B)",
			cfg.Platform.MemoryBytes, maxFootprint)
	}

	e := &engine{
		inst:        inst,
		plat:        cfg.Platform,
		sched:       cfg.Scheduler,
		evict:       cfg.Eviction,
		window:      window,
		nsPerOp:     cfg.NsPerOp,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		busModel:    cfg.BusModel,
		recordTrace: cfg.RecordTrace || cfg.CheckInvariants,
		probe:       cfg.Probe,
	}
	sc := cfg.Scratch
	if sc == nil {
		sc = NewScratch()
	}
	sc.attach(e, cfg.Platform.NumGPUs, inst.NumData(), inst.NumTasks())
	defer sc.detach(e, cfg.RecordTrace)
	if cfg.Telemetry {
		e.tel = sc.telemetryState(cfg.Platform.NumGPUs, inst.NumData())
	}
	if cfg.Context != nil {
		e.ctx = cfg.Context
	}
	// loadsPerData is retained by the Result, so it is never pooled.
	e.loadsPerData = make([]int, inst.NumData())

	e.sched.Init(inst, e)
	e.evict.Init(inst, e)
	e.staticDelay = time.Duration(float64(e.staticOps) * e.nsPerOp)
	for k := range e.gpus {
		e.gpus[k].schedClock = e.staticDelay
	}
	// An empty (or nil) fault plan is a strict no-op: no events posted, no
	// fault RNG seeded, Result.Faults nil — byte-identical to a run
	// configured without a plan.
	if !cfg.Faults.Empty() {
		if err := e.initFaults(cfg.Faults, maxFootprint); err != nil {
			return nil, err
		}
	}

	e.pass()
	if e.tel != nil {
		e.telReclassify()
	}
	for e.eq.len() > 0 {
		ev := e.eq.pop()
		// Fault administration scheduled past the last completion is
		// dropped without advancing the clock: a dropout at t=1h must not
		// stretch the makespan of a workload that finished at t=2ms.
		if isFaultEvent(ev.kind) && e.completed == inst.NumTasks() {
			continue
		}
		if e.ctx != nil {
			e.loopIter++
			if e.loopIter&1023 == 0 {
				if err := e.ctx.Err(); err != nil {
					return nil, fmt.Errorf("sim: cancelled with %d/%d tasks completed: %w",
						e.completed, inst.NumTasks(), err)
				}
			}
		}
		if e.tel != nil {
			// Attribute the idle interval ending now, under the
			// classification established at the previous fixpoint.
			e.telAccrue(ev.at)
		}
		e.now = ev.at
		switch ev.kind {
		case evTransferDone:
			e.transferDone(ev.gpu, ev.data)
		case evPeerDone:
			e.peerDone(ev.gpu, ev.data)
		case evTaskDone:
			e.taskDone(ev.gpu, ev.task)
		case evFairCheck:
			e.fairCheck(ev.gen)
		case evWriteDone:
			e.writeDone(ev.gpu, ev.task)
		case evDropout:
			e.dropout(ev.gpu)
		case evPressureOn:
			e.pressureOn(ev.gpu, e.faults.Pressures[ev.gen])
		case evPressureOff:
			e.pressureOff(ev.gpu, e.faults.Pressures[ev.gen])
		case evWake:
			// state re-examined by the pass below
		}
		e.pass()
		if e.tel != nil {
			e.telReclassify()
		}
	}

	if e.completed != inst.NumTasks() {
		return nil, e.stallError()
	}
	res := e.result()
	if e.tel != nil {
		res.Telemetry = e.telemetryResult()
	}
	if cfg.CheckInvariants {
		if err := CheckTrace(inst, cfg.Platform, res); err != nil {
			return nil, err
		}
	}
	if !cfg.RecordTrace {
		res.Trace = nil
	}
	return res, nil
}

func (e *engine) result() *Result {
	res := &Result{
		SchedulerName:   e.sched.Name(),
		LoadsPerData:    e.loadsPerData,
		InstanceName:    e.inst.Name(),
		NumGPUs:         e.plat.NumGPUs,
		Makespan:        e.now,
		TotalFlops:      e.inst.TotalFlops(),
		WorkingSetBytes: e.inst.WorkingSetBytes(),
		StaticCost:      e.staticDelay,
		DynamicCost:     e.dynamicDelay,
		ChargedOps:      e.staticOps + e.dynamicOps,
		Events:          e.seq,
		GPU:             make([]GPUStats, len(e.gpus)),
		Trace:           e.trace,
		Faults:          e.fstats,
	}
	for k := range e.gpus {
		res.GPU[k] = e.gpus[k].stats
		res.Loads += e.gpus[k].stats.Loads
		res.Evictions += e.gpus[k].stats.Evictions
		res.BytesTransferred += e.gpus[k].stats.BytesIn
		res.PeerBytesTransferred += e.gpus[k].stats.PeerBytesIn
		res.BytesWrittenBack += e.gpus[k].stats.BytesOut
	}
	if res.Makespan > 0 {
		res.GFlops = res.TotalFlops / res.Makespan.Seconds() / 1e9
	}
	return res
}

// pass drives every GPU to a fixpoint: refill windows from the scheduler,
// (re-)issue fetches, retry fetches blocked on memory, and start ready
// tasks. It loops because an action on one GPU (an eviction revoking
// planned tasks, a steal) can enable actions on another.
func (e *engine) pass() {
	for changed := true; changed; {
		changed = false
		for k := range e.gpus {
			if e.gpus[k].dead {
				continue
			}
			if e.refill(k) {
				changed = true
			}
			if e.ensureHeadFetches(k) {
				changed = true
			}
			if e.retryPending(k) {
				changed = true
			}
			if e.tryStart(k) {
				changed = true
			}
		}
	}
}

// refill pops tasks from the scheduler until the window of GPU k is full
// or the scheduler has nothing for it. It reports whether any task was
// popped.
func (e *engine) refill(k int) bool {
	g := &e.gpus[k]
	popped := false
	for len(g.buffer) < e.window {
		e.inPop = true
		e.popCharged = 0
		t, ok := e.sched.PopTask(k)
		e.inPop = false
		cost := time.Duration(float64(e.popCharged) * e.nsPerOp)
		e.dynamicOps += e.popCharged
		e.dynamicDelay += cost
		if g.schedClock < e.now {
			g.schedClock = e.now
		}
		g.schedClock += cost
		if !ok {
			break
		}
		if t < 0 || int(t) >= e.inst.NumTasks() {
			panic(fmt.Sprintf("sim: scheduler %s popped invalid task %d", e.sched.Name(), t))
		}
		g.buffer = append(g.buffer, bufEntry{task: t, earliestStart: g.schedClock})
		if g.schedClock > e.now {
			e.post(event{at: g.schedClock, kind: evWake, gpu: k})
		}
		for _, d := range e.inst.Inputs(t) {
			e.fetch(k, d)
		}
		popped = true
	}
	return popped
}

// ensureHeadFetches re-issues fetches for the head task of the window of
// GPU k: its inputs may have been evicted after the pop-time prefetch
// (the LRU pathology described in §V-B of the paper).
func (e *engine) ensureHeadFetches(k int) bool {
	g := &e.gpus[k]
	if len(g.buffer) == 0 {
		return false
	}
	issued := false
	for _, d := range e.inst.Inputs(g.buffer[0].task) {
		if !g.resident[d] && !g.arriving[d] {
			if e.fetch(k, d) {
				issued = true
			}
		}
	}
	return issued
}

// fetch requests a transfer of d to GPU k. It reports whether a new
// transfer was enqueued on the bus (false if the data is already resident
// or arriving, or if the request is parked waiting for memory).
func (e *engine) fetch(k int, d taskgraph.DataID) bool {
	g := &e.gpus[k]
	if g.resident[d] || g.arriving[d] {
		return false
	}
	size := e.inst.Data(d).Size
	if !e.ensureSpace(k, size) {
		for _, p := range g.pendingFetch {
			if p.data == d {
				return false
			}
		}
		g.pendingFetch = append(g.pendingFetch, fetchReq{gpu: k, data: d})
		return false
	}
	g.reservedBytes += size
	g.arriving[d] = true
	e.route(fetchReq{gpu: k, data: d})
	return true
}

// route sends a transfer request over NVLink when the data is resident on
// a peer GPU and the platform has peer links, and over the shared host
// bus otherwise.
func (e *engine) route(req fetchReq) {
	if e.plat.HasNVLink() {
		for j := range e.gpus {
			if j != req.gpu && e.gpus[j].resident[req.data] {
				e.nvEnqueue(req)
				return
			}
		}
	}
	e.busEnqueue(req)
}

// nvEnqueue appends a peer transfer to the destination GPU's NVLink
// channel, starting it if the channel is idle. Peer transfers snapshot
// the source data at start; a concurrent eviction at the source does not
// abort them.
func (e *engine) nvEnqueue(req fetchReq) {
	g := &e.gpus[req.gpu]
	g.arrivingPeer[req.data] = true
	g.nvq.push(req)
	if !g.nvActive {
		e.nvStartNext(req.gpu)
	}
}

func (e *engine) nvStartNext(k int) {
	g := &e.gpus[k]
	if g.nvq.len() == 0 {
		g.nvActive = false
		return
	}
	req := g.nvq.pop()
	g.nvActive = true
	dur := e.plat.PeerTransferDuration(e.inst.Data(req.data).Size)
	if e.faultRNG != nil {
		dur += e.transientDelay(req.gpu, req.data, taskgraph.NoTask)
	}
	if e.tel != nil {
		e.tel.nvBusy[k] += dur
	}
	e.post(event{at: e.now + dur, kind: evPeerDone, gpu: req.gpu, data: req.data, task: taskgraph.NoTask})
}

func (e *engine) peerDone(k int, d taskgraph.DataID) {
	g := &e.gpus[k]
	if g.dead {
		// Discarded arrival; the NVLink queue was cleared at dropout.
		e.nvStartNext(k)
		return
	}
	size := e.inst.Data(d).Size
	g.arriving[d] = false
	g.arrivingPeer[d] = false
	g.reservedBytes -= size
	g.resident[d] = true
	g.residentList = insertID(g.residentList, d)
	g.residentBytes += size
	g.stats.Loads++
	g.stats.PeerLoads++
	g.stats.PeerBytesIn += size
	e.loadsPerData[d]++
	if e.tel != nil {
		e.telLoaded(k, d)
	}
	e.record(TraceEvent{At: e.now, Kind: TracePeerLoad, GPU: k, Task: taskgraph.NoTask, Data: d})
	e.evict.Loaded(k, d)
	e.sched.DataLoaded(k, d)
	e.nvStartNext(k)
}

// retryPending retries fetches of GPU k that were blocked on memory.
func (e *engine) retryPending(k int) bool {
	g := &e.gpus[k]
	if len(g.pendingFetch) == 0 {
		return false
	}
	pending := g.pendingFetch
	issued := false
	for i, req := range pending {
		if g.resident[req.data] || g.arriving[req.data] {
			continue
		}
		size := e.inst.Data(req.data).Size
		if !e.ensureSpace(k, size) {
			// Still blocked: keep this and the remaining requests parked.
			// Nothing appends to pendingFetch inside this loop, so the
			// in-place compaction is safe and reuses the backing array.
			n := copy(pending, pending[i:])
			g.pendingFetch = pending[:n]
			e.dedupePending(g)
			return issued
		}
		g.reservedBytes += size
		g.arriving[req.data] = true
		e.busEnqueue(req)
		issued = true
	}
	g.pendingFetch = pending[:0]
	return issued
}

func (e *engine) dedupePending(g *gpuState) {
	seen, epoch := e.sc.marks()
	out := g.pendingFetch[:0]
	for _, req := range g.pendingFetch {
		if seen[req.data] == epoch || g.resident[req.data] || g.arriving[req.data] {
			continue
		}
		seen[req.data] = epoch
		out = append(out, req)
	}
	g.pendingFetch = out
}

// markProtected marks the data on GPU k that must not be evicted — inputs
// of the running task and inputs of the head window task — under a fresh
// epoch of the shared mark array, and returns (marks, epoch). Membership
// is mark[d] == epoch; no per-call map is built.
func (e *engine) markProtected(k int) ([]int64, int64) {
	mark, epoch := e.sc.marks()
	g := &e.gpus[k]
	if g.running != taskgraph.NoTask {
		for _, d := range e.inst.Inputs(g.running) {
			mark[d] = epoch
		}
	}
	if len(g.buffer) > 0 {
		for _, d := range e.inst.Inputs(g.buffer[0].task) {
			mark[d] = epoch
		}
	}
	return mark, epoch
}

// evictionCandidates builds the ascending list of unprotected resident
// data of GPU k into the shared scratch buffer, alongside the protection
// marks used to build it. The buffer is valid until the next candidate
// build; eviction policies must not retain it past their Victim call.
func (e *engine) evictionCandidates(k int) ([]taskgraph.DataID, []int64, int64) {
	mark, epoch := e.markProtected(k)
	g := &e.gpus[k]
	cands := e.sc.cands[:0]
	for _, d := range g.residentList {
		if mark[d] != epoch {
			cands = append(cands, d)
		}
	}
	e.sc.cands = cands
	return cands, mark, epoch
}

// ensureSpace evicts data from GPU k until size bytes are free, or reports
// false if not enough unpinned data can be evicted.
//
// The candidate list is built once per call and the victim removed from it
// after each eviction: within the loop residency only changes through
// doEvict (the Evicted/DataEvicted hooks are pure notifications), and the
// protected set depends only on the running task and the window head,
// which no eviction can change — so the pruned list is exactly what a
// per-iteration rebuild would produce, in the same ascending order.
func (e *engine) ensureSpace(k int, size int64) bool {
	g := &e.gpus[k]
	free := e.memLimit(k) - g.residentBytes - g.reservedBytes
	if free >= size {
		return true
	}
	var cands []taskgraph.DataID
	var mark []int64
	var epoch int64
	built := false
	for free < size {
		if !built {
			cands, mark, epoch = e.evictionCandidates(k)
			built = true
		}
		if len(cands) == 0 {
			return false
		}
		v := e.evict.Victim(k, cands)
		if !g.resident[v] || mark[v] == epoch {
			panic(fmt.Sprintf("sim: eviction policy %s chose invalid victim %d on gpu %d", e.evict.Name(), v, k))
		}
		e.doEvict(k, v)
		cands = removeID(cands, v)
		free = e.memLimit(k) - g.residentBytes - g.reservedBytes
	}
	return true
}

func (e *engine) doEvict(k int, d taskgraph.DataID) {
	g := &e.gpus[k]
	g.resident[d] = false
	g.residentList = removeID(g.residentList, d)
	g.residentBytes -= e.inst.Data(d).Size
	g.stats.Evictions++
	if e.tel != nil {
		e.tel.evictedOnce[k][d] = true
		e.telOccupancySample()
	}
	e.record(TraceEvent{At: e.now, Kind: TraceEvict, GPU: k, Task: taskgraph.NoTask, Data: d})
	e.evict.Evicted(k, d)
	e.sched.DataEvicted(k, d)
}

// busEnqueue hands a transfer request to the shared bus under the
// configured contention model.
func (e *engine) busEnqueue(req fetchReq) {
	if !req.writeback {
		e.gpus[req.gpu].arrivingPeer[req.data] = false
	}
	if e.busModel == BusFairShare {
		e.fairEnqueue(req)
		return
	}
	e.bus.q.push(req)
	if !e.bus.active {
		e.busStartNext()
	}
}

func (e *engine) busStartNext() {
	for e.bus.q.len() > 0 {
		req := e.bus.q.pop()
		// A peer copy may have landed while the request waited in the
		// bus queue; divert it to NVLink and keep the host bus free.
		// (Write-backs always use the host bus: the data's home is the
		// host memory.)
		if e.plat.HasNVLink() && !req.writeback {
			diverted := false
			for j := range e.gpus {
				if j != req.gpu && e.gpus[j].resident[req.data] {
					e.nvEnqueue(req)
					diverted = true
					break
				}
			}
			if diverted {
				continue
			}
		}
		e.bus.active = true
		size := req.bytes
		if !req.writeback {
			size = e.inst.Data(req.data).Size
		}
		dur := e.plat.TransferDuration(size)
		if e.faultRNG != nil {
			// Transient failures hold the bus through the retries: the
			// backoff is charged as extra transfer time.
			if req.writeback {
				dur += e.transientDelay(req.gpu, taskgraph.NoData, taskgraph.TaskID(req.data))
			} else {
				dur += e.transientDelay(req.gpu, req.data, taskgraph.NoTask)
			}
		}
		if e.tel != nil {
			// FIFO serializes transfers, so busy time is their sum.
			e.tel.busBusy += dur
		}
		ev := event{at: e.now + dur, kind: evTransferDone, gpu: req.gpu, data: req.data, task: taskgraph.NoTask}
		if req.writeback {
			ev.kind = evWriteDone
			ev.task = taskgraph.TaskID(req.data)
			ev.data = taskgraph.NoData
		}
		e.post(ev)
		return
	}
	e.bus.active = false
}

func (e *engine) transferDone(k int, d taskgraph.DataID) {
	// A transfer that was in flight when its destination dropped out
	// still occupied the bus, but its arrival is discarded.
	if !e.gpus[k].dead {
		e.hostArrived(k, d)
	}
	e.busStartNext()
}

// writeDone accounts a completed output write-back and frees the bus.
func (e *engine) writeDone(k int, t taskgraph.TaskID) {
	out := e.inst.Task(t).OutputBytes
	e.gpus[k].stats.BytesOut += out
	e.record(TraceEvent{At: e.now, Kind: TraceWriteBack, GPU: k, Task: t, Data: taskgraph.NoData})
	e.busStartNext()
}

// hostArrived applies the bookkeeping of a host transfer completing,
// shared by the FIFO and fair-share bus models.
func (e *engine) hostArrived(k int, d taskgraph.DataID) {
	g := &e.gpus[k]
	size := e.inst.Data(d).Size
	g.arriving[d] = false
	g.arrivingPeer[d] = false
	g.reservedBytes -= size
	g.resident[d] = true
	g.residentList = insertID(g.residentList, d)
	g.residentBytes += size
	g.stats.Loads++
	g.stats.BytesIn += size
	e.loadsPerData[d]++
	if e.tel != nil {
		e.telLoaded(k, d)
	}
	e.record(TraceEvent{At: e.now, Kind: TraceLoad, GPU: k, Task: taskgraph.NoTask, Data: d})
	e.evict.Loaded(k, d)
	e.sched.DataLoaded(k, d)
}

// tryStart launches the first window task of GPU k whose inputs are all
// resident and whose scheduler-cost gate has passed. It reports whether a
// task was started.
func (e *engine) tryStart(k int) bool {
	g := &e.gpus[k]
	if g.running != taskgraph.NoTask {
		return false
	}
	for i := range g.buffer {
		ent := g.buffer[i]
		if !e.allResident(k, ent.task) {
			continue
		}
		if ent.earliestStart > e.now {
			e.post(event{at: ent.earliestStart, kind: evWake, gpu: k})
			continue
		}
		g.buffer = append(g.buffer[:i], g.buffer[i+1:]...)
		g.running = ent.task
		g.runStart = e.now
		for _, d := range e.inst.Inputs(ent.task) {
			e.evict.Used(k, d)
		}
		dur := e.plat.TaskDurationOn(k, e.inst.Task(ent.task).Flops)
		g.stats.BusyTime += dur
		e.record(TraceEvent{At: e.now, Kind: TraceStart, GPU: k, Task: ent.task, Data: taskgraph.NoData})
		if e.fstats != nil {
			e.recoveredStart(ent.task)
		}
		e.post(event{at: e.now + dur, kind: evTaskDone, gpu: k, task: ent.task, data: taskgraph.NoData})
		return true
	}
	return false
}

func (e *engine) taskDone(k int, t taskgraph.TaskID) {
	g := &e.gpus[k]
	if g.dead {
		// Stale completion of a task killed by the dropout.
		return
	}
	if g.running != t {
		panic(fmt.Sprintf("sim: completion of task %d on gpu %d but running is %d", t, k, g.running))
	}
	g.running = taskgraph.NoTask
	g.stats.Tasks++
	e.completed++
	e.done[t] = true
	e.record(TraceEvent{At: e.now, Kind: TraceEnd, GPU: k, Task: t, Data: taskgraph.NoData})
	if out := e.inst.Task(t).OutputBytes; out > 0 {
		// The result is written back to host memory over the shared
		// bus; it does not occupy GPU memory in this model (the paper's
		// §I simplification, extended here with the bus contention).
		e.busEnqueue(fetchReq{gpu: k, data: taskgraph.DataID(t), writeback: true, bytes: out})
	}
	e.sched.TaskDone(k, t)
}

func (e *engine) allResident(k int, t taskgraph.TaskID) bool {
	g := &e.gpus[k]
	for _, d := range e.inst.Inputs(t) {
		if !g.resident[d] {
			return false
		}
	}
	return true
}

func (e *engine) post(ev event) {
	ev.seq = e.seq
	e.seq++
	e.eq.push(ev)
}

func (e *engine) record(ev TraceEvent) {
	if e.recordTrace {
		e.trace = append(e.trace, ev)
	}
	if e.probe != nil {
		e.probe.OnEvent(ev)
	}
}

// RuntimeView implementation.

// Instance returns the instance under execution.
func (e *engine) Instance() *taskgraph.Instance { return e.inst }

// Platform returns the simulated machine.
func (e *engine) Platform() platform.Platform { return e.plat }

// Now returns the current simulated time.
func (e *engine) Now() time.Duration { return e.now }

// Alive reports whether gpu has not suffered a permanent dropout.
// Always true on fault-free runs.
func (e *engine) Alive(gpu int) bool { return !e.gpus[gpu].dead }

// Available reports whether d is resident on or arriving at gpu.
func (e *engine) Available(gpu int, d taskgraph.DataID) bool {
	g := &e.gpus[gpu]
	return g.resident[d] || g.arriving[d]
}

// MissingInputs counts inputs of t not Available on gpu.
func (e *engine) MissingInputs(gpu int, t taskgraph.TaskID) int {
	n := 0
	for _, d := range e.inst.Inputs(t) {
		if !e.Available(gpu, d) {
			n++
		}
	}
	return n
}

// Rand returns the simulation's deterministic random source.
func (e *engine) Rand() *rand.Rand { return e.rng }

// Charge accounts ops scheduler operations to the decision in progress.
func (e *engine) Charge(ops int64) {
	if e.inPop {
		e.popCharged += ops
	} else {
		e.staticOps += ops
	}
}

// ChargeStatic accounts ops operations to the pre-execution phase.
func (e *engine) ChargeStatic(ops int64) { e.staticOps += ops }
