package sim_test

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"memsched/internal/sim"
	"memsched/internal/taskgraph"
)

// killOfLinear is the reference KillOf: a scan of every span of every
// GPU in GPU order, keeping the latest End and, on equal End, the first
// span met (lowest GPU, then earliest span).
func killOfLinear(idx *sim.TraceIndex, t taskgraph.TaskID, after, upTo time.Duration) (sim.Span, int, bool) {
	var best sim.Span
	bestGPU := -1
	for g, spans := range idx.Spans {
		for _, sp := range spans {
			if sp.Killed && sp.Task == t && sp.End > after && sp.End <= upTo {
				if bestGPU == -1 || sp.End > best.End {
					best, bestGPU = sp, g
				}
			}
		}
	}
	return best, bestGPU, bestGPU >= 0
}

// span is one synthetic occupancy interval for building a trace.
type span struct {
	gpu        int
	task       taskgraph.TaskID
	start, end time.Duration
	killed     bool
}

// traceOf renders spans as a recorded trace: START and END/KILL events
// merged in time order (stable, so equal times keep the input order).
func traceOf(spans []span) []sim.TraceEvent {
	var tr []sim.TraceEvent
	for _, s := range spans {
		kind := sim.TraceEnd
		if s.killed {
			kind = sim.TraceTaskKill
		}
		tr = append(tr,
			sim.TraceEvent{At: s.start, Kind: sim.TraceStart, GPU: s.gpu, Task: s.task, Data: taskgraph.NoData},
			sim.TraceEvent{At: s.end, Kind: kind, GPU: s.gpu, Task: s.task, Data: taskgraph.NoData})
	}
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].At < tr[j].At })
	return tr
}

func TestKillOfCases(t *testing.T) {
	ms := time.Millisecond
	type query struct {
		task        taskgraph.TaskID
		after, upTo time.Duration
		wantGPU     int // -1: no kill in the window
		wantStart   time.Duration
	}
	cases := []struct {
		name    string
		spans   []span
		queries []query
	}{
		{
			// Task 7 is killed on GPU 2 and on GPU 1 at the same time;
			// the lower GPU wins the tie.
			name: "equal-end-kills",
			spans: []span{
				{gpu: 2, task: 7, start: 1 * ms, end: 5 * ms, killed: true},
				{gpu: 1, task: 7, start: 2 * ms, end: 5 * ms, killed: true},
				{gpu: 0, task: 3, start: 0, end: 4 * ms},
				{gpu: 0, task: 7, start: 6 * ms, end: 9 * ms},
			},
			queries: []query{
				{task: 7, after: 0, upTo: 9 * ms, wantGPU: 1, wantStart: 2 * ms},
				{task: 7, after: 4 * ms, upTo: 5 * ms, wantGPU: 1, wantStart: 2 * ms},
				// A completed span of the task is never a kill.
				{task: 3, after: 0, upTo: 9 * ms, wantGPU: -1},
			},
		},
		{
			// The window is (after, upTo]: a kill at exactly after, or
			// after upTo, is outside it; the latest kill inside wins.
			name: "window-bounds",
			spans: []span{
				{gpu: 0, task: 4, start: 0, end: 2 * ms, killed: true},
				{gpu: 1, task: 4, start: 1 * ms, end: 6 * ms, killed: true},
				{gpu: 0, task: 4, start: 3 * ms, end: 8 * ms, killed: true},
				{gpu: 0, task: 4, start: 9 * ms, end: 12 * ms},
			},
			queries: []query{
				{task: 4, after: 2 * ms, upTo: 5 * ms, wantGPU: -1},
				{task: 4, after: 8 * ms, upTo: 12 * ms, wantGPU: -1},
				{task: 4, after: 0, upTo: 1 * ms, wantGPU: -1},
				{task: 4, after: 1 * ms, upTo: 2 * ms, wantGPU: 0, wantStart: 0},
				{task: 4, after: 2 * ms, upTo: 6 * ms, wantGPU: 1, wantStart: 1 * ms},
				{task: 4, after: 0, upTo: 12 * ms, wantGPU: 0, wantStart: 3 * ms},
			},
		},
		{
			name: "kill-free",
			spans: []span{
				{gpu: 0, task: 0, start: 0, end: 3 * ms},
				{gpu: 1, task: 1, start: 0, end: 4 * ms},
			},
			queries: []query{
				{task: 0, after: -1, upTo: 10 * ms, wantGPU: -1},
				{task: 1, after: -1, upTo: 10 * ms, wantGPU: -1},
				// A task id beyond every span must not index out of range.
				{task: 99, after: -1, upTo: 10 * ms, wantGPU: -1},
			},
		},
	}
	for _, c := range cases {
		idx := sim.IndexTrace(traceOf(c.spans), 3)
		for _, q := range c.queries {
			sp, g, ok := idx.KillOf(q.task, q.after, q.upTo)
			rsp, rg, rok := killOfLinear(idx, q.task, q.after, q.upTo)
			if sp != rsp || g != rg || ok != rok {
				t.Errorf("%s: KillOf(%d, %v, %v) = (%+v, %d, %v), linear scan gives (%+v, %d, %v)",
					c.name, q.task, q.after, q.upTo, sp, g, ok, rsp, rg, rok)
			}
			if ok != (q.wantGPU >= 0) || (ok && (g != q.wantGPU || sp.Start != q.wantStart || !sp.Killed || sp.Task != q.task)) {
				t.Errorf("%s: KillOf(%d, %v, %v) = (%+v, %d, %v), want GPU %d start %v",
					c.name, q.task, q.after, q.upTo, sp, g, ok, q.wantGPU, q.wantStart)
			}
		}
	}
}

// TestKillOfMatchesLinearScan compares KillOf with the reference scan
// on random traces with many kills and coarse times, so equal End
// values across GPUs and within one GPU's history are common.
func TestKillOfMatchesLinearScan(t *testing.T) {
	const gpus, tasks = 4, 12
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		var spans []span
		for g := 0; g < gpus; g++ {
			at := time.Duration(rng.Intn(3))
			for n := rng.Intn(8); n > 0; n-- {
				d := time.Duration(1 + rng.Intn(3))
				spans = append(spans, span{gpu: g, task: taskgraph.TaskID(rng.Intn(tasks)),
					start: at, end: at + d, killed: rng.Intn(2) == 0})
				at += d + time.Duration(rng.Intn(2))
			}
		}
		idx := sim.IndexTrace(traceOf(spans), gpus)
		for task := taskgraph.TaskID(0); task < tasks+1; task++ {
			for after := time.Duration(-1); after < 30; after += 2 {
				for upTo := after; upTo < 32; upTo += 3 {
					sp, g, ok := idx.KillOf(task, after, upTo)
					rsp, rg, rok := killOfLinear(idx, task, after, upTo)
					if sp != rsp || g != rg || ok != rok {
						t.Fatalf("iter %d: KillOf(%d, %v, %v) = (%+v, %d, %v), linear scan gives (%+v, %d, %v)",
							iter, task, after, upTo, sp, g, ok, rsp, rg, rok)
					}
				}
			}
		}
	}
}
