package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"memsched/internal/platform"
	"memsched/internal/taskgraph"
	"memsched/internal/workload"
)

// fakeView is a minimal RuntimeView for white-box scheduler tests.
type fakeView struct {
	inst     *taskgraph.Instance
	plat     platform.Platform
	resident [][]bool
	arriving [][]bool
	rng      *rand.Rand
	charged  int64
	static   int64
}

func newFakeView(inst *taskgraph.Instance, gpus int) *fakeView {
	v := &fakeView{
		inst: inst,
		plat: platform.V100(gpus),
		rng:  rand.New(rand.NewSource(1)),
	}
	v.resident = make([][]bool, gpus)
	v.arriving = make([][]bool, gpus)
	for k := range v.resident {
		v.resident[k] = make([]bool, inst.NumData())
		v.arriving[k] = make([]bool, inst.NumData())
	}
	return v
}

func (v *fakeView) Instance() *taskgraph.Instance { return v.inst }
func (v *fakeView) Platform() platform.Platform   { return v.plat }
func (v *fakeView) Now() time.Duration            { return 0 }
func (v *fakeView) Alive(g int) bool              { return true }
func (v *fakeView) Available(g int, d taskgraph.DataID) bool {
	return v.resident[g][d] || v.arriving[g][d]
}
func (v *fakeView) MissingInputs(g int, t taskgraph.TaskID) int {
	n := 0
	for _, d := range v.inst.Inputs(t) {
		if !v.Available(g, d) {
			n++
		}
	}
	return n
}
func (v *fakeView) Rand() *rand.Rand       { return v.rng }
func (v *fakeView) Charge(ops int64)       { v.charged += ops }
func (v *fakeView) ChargeStatic(ops int64) { v.static += ops }

func TestReadyPickPrefersResident(t *testing.T) {
	inst := workload.Matmul2D(4)
	v := newFakeView(inst, 1)
	// Make inputs of task 7 (row 1, col 3: A[1], B[3]) resident.
	for _, d := range inst.Inputs(7) {
		v.resident[0][d] = true
	}
	queue := []taskgraph.TaskID{0, 3, 7, 9}
	if i := readyPick(v, 0, queue, 0, true); queue[i] != 7 {
		t.Fatalf("picked %d, want 7", queue[i])
	}
	// Arriving data also counts as present.
	v2 := newFakeView(inst, 1)
	for _, d := range inst.Inputs(9) {
		v2.arriving[0][d] = true
	}
	if i := readyPick(v2, 0, queue, 0, true); queue[i] != 9 {
		t.Fatalf("picked %d, want 9", queue[i])
	}
	if v.charged == 0 {
		t.Fatal("readyPick must charge its scan")
	}
}

func TestReadyPickWindowBounds(t *testing.T) {
	inst := workload.Matmul2D(4)
	v := newFakeView(inst, 1)
	for _, d := range inst.Inputs(9) {
		v.resident[0][d] = true
	}
	queue := []taskgraph.TaskID{0, 3, 7, 9}
	// Window 2 cannot see task 9 at index 3.
	if i := readyPick(v, 0, queue, 2, true); queue[i] == 9 {
		t.Fatal("window bound ignored")
	}
	if i := readyPick(v, 0, queue, -1, true); queue[i] != 9 {
		t.Fatal("negative window should scan everything")
	}
	if readyPick(v, 0, nil, 0, true) != -1 {
		t.Fatal("empty queue should return -1")
	}
}

func TestStealHalf(t *testing.T) {
	q := [][]taskgraph.TaskID{
		{},
		{1, 2, 3, 4, 5, 6},
		{7, 8},
	}
	if !stealHalf(q, 0) {
		t.Fatal("steal failed")
	}
	// Half of the richest (gpu 1), from the tail.
	if len(q[1]) != 3 || len(q[0]) != 3 {
		t.Fatalf("after steal: %v", q)
	}
	if q[0][0] != 4 || q[0][2] != 6 {
		t.Fatalf("stolen tasks %v, want tail {4,5,6}", q[0])
	}
	// Nothing left to steal from a single-task victim.
	q = [][]taskgraph.TaskID{{}, {9}}
	if stealHalf(q, 0) {
		t.Fatal("stole from a single-task queue")
	}
}

func TestDMDAAllocationBalances(t *testing.T) {
	inst := workload.Matmul2D(10)
	v := newFakeView(inst, 4)
	s := NewDMDAR(0)().(*DMDAR)
	s.Init(inst, v)
	for k := 0; k < 4; k++ {
		if got := len(s.queues[k]); got < 15 || got > 35 {
			t.Fatalf("gpu %d allocated %d of 100 tasks", k, got)
		}
	}
	if v.static == 0 {
		t.Fatal("DMDA allocation must charge static cost")
	}
}

func TestHFPPackagesRespectMemoryPhase1(t *testing.T) {
	// White-box: run Init on a single GPU and verify the final package
	// is the concatenation of memory-fitting sub-packages by checking
	// the queue covers all tasks exactly once.
	inst := workload.Matmul2D(8)
	v := newFakeView(inst, 2)
	s := NewMHFP(false, 0)().(*MHFP)
	s.Init(inst, v)
	seen := make(map[taskgraph.TaskID]bool)
	total := 0
	for k := range s.queues {
		for _, task := range s.queues[k] {
			if seen[task] {
				t.Fatalf("task %d in two queues", task)
			}
			seen[task] = true
			total++
		}
	}
	if total != inst.NumTasks() {
		t.Fatalf("%d of %d tasks packed", total, inst.NumTasks())
	}
	// Load balancing: queues within one task of each other is too
	// strict after affinity merging, but 2x fair share must hold.
	fair := inst.NumTasks() / 2
	for k := range s.queues {
		if len(s.queues[k]) > fair+fair/2 {
			t.Fatalf("gpu %d queue %d >> fair %d", k, len(s.queues[k]), fair)
		}
	}
}

func TestHFPChargesCostOnlyWhenAsked(t *testing.T) {
	inst := workload.Matmul2D(6)
	v := newFakeView(inst, 2)
	NewMHFP(false, 0)().Init(inst, v)
	if v.static != 0 {
		t.Fatal("mHFP no sched. time charged static cost")
	}
	v2 := newFakeView(inst, 2)
	NewMHFP(true, 0)().Init(inst, v2)
	if v2.static == 0 {
		t.Fatal("mHFP did not charge packing cost")
	}
}

func TestHMetisRChargesCostOnlyWhenAsked(t *testing.T) {
	inst := workload.Matmul2D(6)
	v := newFakeView(inst, 2)
	NewHMetisR(false, 0)().Init(inst, v)
	if v.static != 0 {
		t.Fatal("no part. time variant charged static cost")
	}
	v2 := newFakeView(inst, 2)
	NewHMetisR(true, 0)().Init(inst, v2)
	if v2.static == 0 {
		t.Fatal("hMETIS+R did not charge partitioning cost")
	}
}

func TestHMetisRPartitionCoversAllTasks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := workload.Random(20+rng.Intn(60), 8+rng.Intn(10), 3, seed)
		v := newFakeView(inst, 2+rng.Intn(3))
		s := NewHMetisR(false, 0)().(*HMetisR)
		s.Init(inst, v)
		seen := make(map[taskgraph.TaskID]bool)
		for k := range s.queues {
			for _, task := range s.queues[k] {
				if seen[task] {
					return false
				}
				seen[task] = true
			}
		}
		return len(seen) == inst.NumTasks()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDARTSPoolBookkeeping(t *testing.T) {
	inst := workload.Matmul2D(4)
	v := newFakeView(inst, 2)
	s, pol := NewDARTSPair(DARTSOptions{LUF: true})()
	d := s.(*DARTS)
	d.Init(inst, v)
	if pol == nil {
		t.Fatal("LUF pair missing policy")
	}
	// First pop: nothing loaded, pool full, so the else branch takes a
	// random task and marks its inputs loaded.
	task, ok := d.PopTask(0)
	if !ok {
		t.Fatal("pop failed")
	}
	if d.inPool(task) {
		t.Fatal("popped task still in pool")
	}
	for _, in := range inst.Inputs(task) {
		if !d.loaded[0][in] {
			t.Fatalf("input %d not marked loaded", in)
		}
	}
	// Next pops on GPU 0 should find free tasks via the now-loaded data
	// (the row and column of the first task share data with others).
	task2, ok := d.PopTask(0)
	if !ok {
		t.Fatal("second pop failed")
	}
	if task2 == task {
		t.Fatal("task popped twice")
	}
	// The buffers track popped tasks until completion.
	if len(d.buffer[0]) != 2 {
		t.Fatalf("buffer = %v", d.buffer[0])
	}
	d.TaskDone(0, task)
	if len(d.buffer[0]) != 1 || d.buffer[0][0] != task2 {
		t.Fatalf("buffer after done = %v", d.buffer[0])
	}
}

func TestDARTSEvictionRevokesPlanned(t *testing.T) {
	inst := workload.Matmul2D(6)
	v := newFakeView(inst, 1)
	s, _ := NewDARTSPair(DARTSOptions{LUF: true})()
	d := s.(*DARTS)
	d.Init(inst, v)
	// Pop once (random seed task), then once more to trigger a planned
	// fill from a selected data.
	d.PopTask(0)
	d.PopTask(0)
	if len(d.planned[0]) == 0 {
		t.Skip("no planned tasks materialized for this seed")
	}
	planned := append([]taskgraph.TaskID(nil), d.planned[0]...)
	// Evicting a data used by planned tasks must revoke them to the pool.
	victim := inst.Inputs(planned[0])[0]
	before := len(d.poolSlice)
	d.DataEvicted(0, victim)
	if d.loaded[0][victim] {
		t.Fatal("evicted data still marked loaded")
	}
	revoked := 0
	for _, task := range planned {
		if d.inPool(task) {
			revoked++
		}
	}
	if revoked == 0 {
		t.Fatal("no planned task revoked")
	}
	if len(d.poolSlice) <= before {
		t.Fatal("pool did not grow after revocation")
	}
}

func TestDARTSPlainDoesNotRevoke(t *testing.T) {
	inst := workload.Matmul2D(6)
	v := newFakeView(inst, 1)
	s, pol := NewDARTSPair(DARTSOptions{})()
	if pol != nil {
		t.Fatal("plain DARTS should use the default LRU")
	}
	d := s.(*DARTS)
	d.Init(inst, v)
	d.PopTask(0)
	d.PopTask(0)
	if len(d.planned[0]) == 0 {
		t.Skip("no planned tasks for this seed")
	}
	planned := append([]taskgraph.TaskID(nil), d.planned[0]...)
	victim := inst.Inputs(planned[0])[0]
	d.DataEvicted(0, victim)
	for _, task := range planned {
		if d.inPool(task) {
			t.Fatal("plain DARTS revoked a planned task")
		}
	}
}

func TestLUFVictimSelection(t *testing.T) {
	inst := workload.Matmul2D(4) // data 0..3 = A rows, 4..7 = B cols
	v := newFakeView(inst, 1)
	s, polI := NewDARTSPair(DARTSOptions{LUF: true})()
	d := s.(*DARTS)
	pol := polI.(*LUF)
	d.Init(inst, v)
	// Build scheduler state by hand: buffer holds task 0 (A0,B0);
	// planned holds task 1 (A0,B1).
	d.buffer[0] = []taskgraph.TaskID{0}
	d.planned[0] = []taskgraph.TaskID{1}
	// Candidates: A0 (data 0, used by buffer), B1 (data 5, planned
	// only), B2 (data 6, unused).
	victim := pol.Victim(0, []taskgraph.DataID{0, 5, 6})
	if victim != 6 {
		t.Fatalf("victim = %d, want 6 (nb=0, np=0)", victim)
	}
	// Without an unused candidate, prefer the planned-only one over the
	// buffered one.
	victim = pol.Victim(0, []taskgraph.DataID{0, 5})
	if victim != 5 {
		t.Fatalf("victim = %d, want 5 (nb=0, np=1)", victim)
	}
	// All candidates used by the buffer: Belady on the buffer order.
	d.buffer[0] = []taskgraph.TaskID{0, 5}           // task 5 = row 1, col 1 (A1,B1)
	victim = pol.Victim(0, []taskgraph.DataID{0, 1}) // A0 used at 0, A1 at 1
	if victim != 1 {
		t.Fatalf("victim = %d, want 1 (A1 used furthest)", victim)
	}
}

func TestDARTSThresholdLimitsCandidates(t *testing.T) {
	inst := workload.Matmul2D(10)
	vFull := newFakeView(inst, 1)
	sFull, _ := NewDARTSPair(DARTSOptions{LUF: true})()
	dFull := sFull.(*DARTS)
	dFull.Init(inst, vFull)

	vThr := newFakeView(inst, 1)
	sThr, _ := NewDARTSPair(DARTSOptions{LUF: true, Threshold: 2})()
	dThr := sThr.(*DARTS)
	dThr.Init(inst, vThr)

	// Drain both; the threshold variant must still schedule every task.
	count := 0
	for {
		_, ok := dThr.PopTask(0)
		if !ok {
			break
		}
		count++
	}
	if count != inst.NumTasks() {
		t.Fatalf("threshold variant served %d of %d tasks", count, inst.NumTasks())
	}
}

func TestDARTSOPTIServesEverything(t *testing.T) {
	inst := workload.Cholesky(5)
	v := newFakeView(inst, 2)
	s, _ := NewDARTSPair(DARTSOptions{LUF: true, Opti: true, ThreeInputs: true})()
	d := s.(*DARTS)
	d.Init(inst, v)
	served := 0
	for gpu := 0; ; gpu = 1 - gpu {
		_, ok := d.PopTask(gpu)
		if !ok {
			if _, ok2 := d.PopTask(1 - gpu); !ok2 {
				break
			}
			served++
			continue
		}
		served++
	}
	if served != inst.NumTasks() {
		t.Fatalf("served %d of %d", served, inst.NumTasks())
	}
}

func TestStrategyNames(t *testing.T) {
	cases := map[string]DARTSOptions{
		"DARTS":                  {},
		"DARTS+LUF":              {LUF: true},
		"DARTS+LUF-3inputs":      {LUF: true, ThreeInputs: true},
		"DARTS+LUF+OPTI":         {LUF: true, Opti: true},
		"DARTS+LUF+OPTI-3inputs": {LUF: true, Opti: true, ThreeInputs: true},
		"DARTS+LUF+threshold":    {LUF: true, Threshold: 10},
	}
	for want, opts := range cases {
		if got := opts.name(); got != want {
			t.Errorf("name(%+v) = %q, want %q", opts, got, want)
		}
	}
}

// TestRemoveAtKeepsOrder compares removeAt with the plain order-keeping
// delete on every position of queues of every length up to 12.
func TestRemoveAtKeepsOrder(t *testing.T) {
	for n := 1; n <= 12; n++ {
		for i := 0; i < n; i++ {
			q := make([]taskgraph.TaskID, n)
			for j := range q {
				q[j] = taskgraph.TaskID(100 + j)
			}
			want := append(append([]taskgraph.TaskID(nil), q[:i]...), q[i+1:]...)
			got := removeAt(q, i)
			if len(got) != len(want) {
				t.Fatalf("removeAt(len %d, %d): len %d, want %d", n, i, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("removeAt(len %d, %d) = %v, want %v", n, i, got, want)
				}
			}
		}
	}
}
