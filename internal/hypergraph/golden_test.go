package hypergraph_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"memsched/internal/hypergraph"
	"memsched/internal/taskgraph"
	"memsched/internal/workload"
)

// goldenCase is one partition call of the golden corpus.
type goldenCase struct {
	name   string
	build  func() *taskgraph.Instance
	k      int
	clique bool
}

// goldenResult is what a partition call must reproduce exactly.
type goldenResult struct {
	ops, cut int64
	hash     uint64 // FNV-64a of the part vector
}

func goldenCases() []goldenCase {
	type inst struct {
		name  string
		build func() *taskgraph.Instance
		ks    []int
	}
	var insts []inst
	add := func(name string, build func() *taskgraph.Instance, ks ...int) {
		insts = append(insts, inst{name, build, ks})
	}
	for _, n := range []int{5, 10, 17, 25, 34, 42, 50, 68, 85, 100} {
		add(fmt.Sprintf("matmul2d-%d", n), func() *taskgraph.Instance { return workload.Matmul2D(n) }, 2, 4)
	}
	for _, n := range []int{17, 34, 50} {
		add(fmt.Sprintf("matmul2d-rand-%d", n), func() *taskgraph.Instance { return workload.Matmul2DRandomized(n, 1) }, 2, 4)
	}
	for _, n := range []int{5, 10, 16} {
		add(fmt.Sprintf("cholesky-%d", n), func() *taskgraph.Instance { return workload.Cholesky(n) }, 2, 4)
	}
	for _, n := range []int{50, 150, 300} {
		add(fmt.Sprintf("sparse2d-%d", n), func() *taskgraph.Instance {
			return workload.Sparse2D(n, workload.DefaultSparseKeep, 1)
		}, 2, 4)
	}
	for _, n := range []int{4, 6, 8} {
		add(fmt.Sprintf("matmul3d-%d", n), func() *taskgraph.Instance { return workload.Matmul3D(n) }, 2)
	}
	var cases []goldenCase
	for _, in := range insts {
		tasks := in.build().NumTasks()
		for _, k := range in.ks {
			cases = append(cases, goldenCase{name: fmt.Sprintf("%s/k%d", in.name, k), build: in.build, k: k})
			if tasks <= 700 {
				cases = append(cases, goldenCase{name: fmt.Sprintf("%s/k%d/clique", in.name, k), build: in.build, k: k, clique: true})
			}
		}
	}
	return cases
}

// taskHypergraph builds the task/data hypergraph the way the hMETIS+R
// strategy does: one vertex per task, one net per data item over its
// consumers, weighted by the item's size in MiB (at least 1).
func taskHypergraph(inst *taskgraph.Instance) *hypergraph.Hypergraph {
	h := hypergraph.New(inst.NumTasks())
	for d := 0; d < inst.NumData(); d++ {
		cons := inst.Consumers(taskgraph.DataID(d))
		pins := make([]int32, len(cons))
		for i, t := range cons {
			pins[i] = int32(t)
		}
		w := inst.Data(taskgraph.DataID(d)).Size / (1 << 20)
		if w < 1 {
			w = 1
		}
		h.AddNet(w, pins...)
	}
	return h
}

func runGolden(c goldenCase) (goldenResult, error) {
	h := taskHypergraph(c.build())
	cfg := hypergraph.Config{K: c.k, Seed: 1, UBFactor: 1, Nruns: 20, VCycles: 2}
	partition := hypergraph.Partition
	if c.clique {
		partition = hypergraph.PartitionClique
	}
	part, stats, err := partition(h, cfg)
	if err != nil {
		return goldenResult{}, err
	}
	f := fnv.New64a()
	var buf [8]byte
	for _, p := range part {
		for i := range buf {
			buf[i] = byte(uint64(p) >> (8 * i))
		}
		f.Write(buf[:])
	}
	return goldenResult{ops: stats.Ops, cut: stats.Cut, hash: f.Sum64()}, nil
}

// golden pins (Ops, Cut, part hash) of every corpus case at seed 1. The
// table was generated by the lazy-heap FM partitioner at commit 7bdadf7;
// the indexed heap and delta gains must reproduce it exactly, because
// Ops feeds the charged static cost of every hMETIS+R cell.
var golden = map[string]goldenResult{
	"matmul2d-5/k2":              {17788, 84, 0xcaf254bf2db28fc5},
	"matmul2d-5/k2/clique":       {86864, 84, 0xcaf254bf2db28fc5},
	"matmul2d-5/k4":              {31619, 154, 0x6f9b6d982070a324},
	"matmul2d-5/k4/clique":       {136139, 224, 0x7bd14b32a487ff66},
	"matmul2d-10/k2":             {13200, 140, 0xe800d84fbfb54365},
	"matmul2d-10/k2/clique":      {169416, 140, 0x31aacbb36e938b65},
	"matmul2d-10/k4":             {91798, 280, 0xe3e183155bd17085},
	"matmul2d-10/k4/clique":      {968770, 476, 0xff297f071641d1a5},
	"matmul2d-17/k2":             {120965, 364, 0xbf630d4c6fc4c5a5},
	"matmul2d-17/k2/clique":      {1434495, 252, 0x36ea740192cec404},
	"matmul2d-17/k4":             {196904, 784, 0x37f9999c016d48c5},
	"matmul2d-17/k4/clique":      {2243671, 756, 0x41e233402700f1e6},
	"matmul2d-25/k2":             {548648, 532, 0xad986e6a0fc19104},
	"matmul2d-25/k2/clique":      {10572251, 420, 0xd607532852fd1e24},
	"matmul2d-25/k4":             {876867, 1218, 0xad75e914f9c58cc6},
	"matmul2d-25/k4/clique":      {15107839, 1092, 0x3ecc643597347606},
	"matmul2d-34/k2":             {1512167, 756, 0x516a5ffe3c0a8465},
	"matmul2d-34/k4":             {2434859, 1918, 0xc0061050bb930104},
	"matmul2d-42/k2":             {6004643, 966, 0xe74dbf5eeb01e844},
	"matmul2d-42/k4":             {10247173, 2352, 0x61d06ef21b630767},
	"matmul2d-50/k2":             {6955916, 1176, 0xbb141c8d3f978c45},
	"matmul2d-50/k4":             {10780703, 2954, 0x83562206893881e5},
	"matmul2d-68/k2":             {23182754, 1694, 0x58c7717fa34ab325},
	"matmul2d-68/k4":             {37661141, 4410, 0x18f7804831edcaa7},
	"matmul2d-85/k2":             {287269446, 2142, 0x401d9c46ef479a25},
	"matmul2d-85/k4":             {318185765, 5740, 0x33a9b964706551c5},
	"matmul2d-100/k2":            {91668213, 2632, 0xa28cbc68b9c38ec4},
	"matmul2d-100/k4":            {143956178, 7140, 0x9ab5f93df4be25a7},
	"matmul2d-rand-17/k2":        {111916, 406, 0x490b9d569911da24},
	"matmul2d-rand-17/k2/clique": {1964250, 252, 0x6c5e408eee82eba4},
	"matmul2d-rand-17/k4":        {194958, 812, 0x6eb25d6b3f6e8ba6},
	"matmul2d-rand-17/k4/clique": {2990550, 770, 0x75086e669ea87466},
	"matmul2d-rand-34/k2":        {1070221, 896, 0xe8f6c4e6379af8c5},
	"matmul2d-rand-34/k4":        {1917028, 2100, 0xde70460d57e97cc6},
	"matmul2d-rand-50/k2":        {3978798, 1358, 0x7caa6b4676a77c85},
	"matmul2d-rand-50/k4":        {6946597, 3416, 0xf9c651c708da05},
	"cholesky-5/k2":              {22130, 24, 0xce11b6c00fa855c5},
	"cholesky-5/k2/clique":       {217184, 30, 0xa52bc705754369c4},
	"cholesky-5/k4":              {44519, 48, 0x43a0833cccb3bf84},
	"cholesky-5/k4/clique":       {298067, 60, 0x91bb1a3b28c36485},
	"cholesky-10/k2":             {519631, 90, 0xb2a3ea0b924a5ce5},
	"cholesky-10/k2/clique":      {2002884, 105, 0xfc9ee6163d188605},
	"cholesky-10/k4":             {978789, 171, 0x533373511a15ade5},
	"cholesky-10/k4/clique":      {3792909, 309, 0xfe23cffb56ce4ea4},
	"cholesky-16/k2":             {1678436, 300, 0x8377b99a40957ec5},
	"cholesky-16/k4":             {3779412, 555, 0x7de843795a23c3a6},
	"sparse2d-50/k2":             {7647, 28, 0x803c3b4638dc59a4},
	"sparse2d-50/k2/clique":      {14330, 28, 0x42fd7f7853944ea5},
	"sparse2d-50/k4":             {18244, 42, 0x40280e8f6797c946},
	"sparse2d-50/k4/clique":      {35410, 42, 0xb05d2e855fba08a4},
	"sparse2d-150/k2":            {80730, 574, 0x1137608213dd1da4},
	"sparse2d-150/k2/clique":     {209002, 742, 0x560fd9998c9c7644},
	"sparse2d-150/k4":            {159289, 1050, 0xabbfaf7fa541a887},
	"sparse2d-150/k4/clique":     {393165, 1442, 0xba24c48580fd5e87},
	"sparse2d-300/k2":            {8272111, 2562, 0x32e29398a99f02c5},
	"sparse2d-300/k4":            {9093734, 5194, 0x9dca1ebd6383f9a4},
	"matmul3d-4/k2":              {16296, 0, 0x56eec6eb8318e925},
	"matmul3d-4/k2/clique":       {49272, 0, 0x56eec6eb8318e925},
	"matmul3d-6/k2":              {40055, 0, 0xa180ca8a1827eca5},
	"matmul3d-6/k2/clique":       {82591, 0, 0x6e05891033829ca5},
	"matmul3d-8/k2":              {71852, 0, 0x85da250775b25325},
	"matmul3d-8/k2/clique":       {176617, 0, 0xaed60d33b0765325},
}

func TestGoldenPartitionCorpus(t *testing.T) {
	cases := goldenCases()
	if len(cases) != len(golden) {
		t.Fatalf("%d corpus cases, %d golden entries", len(cases), len(golden))
	}
	for _, c := range cases {
		want, ok := golden[c.name]
		if !ok {
			t.Fatalf("%s: no golden entry", c.name)
		}
		got, err := runGolden(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != want {
			t.Errorf("%s: got {ops %d, cut %d, hash %#x}, want {ops %d, cut %d, hash %#x}",
				c.name, got.ops, got.cut, got.hash, want.ops, want.cut, want.hash)
		}
	}
}

// TestPartitionAllocBudget gates the partitioner's allocations: one
// hMETIS+R partition of the Matmul2D(60) hypergraph into 4 parts must
// allocate at most 32 MB in total. The lazy-heap FM pass it replaced
// allocated 227 MB for the same call.
func TestPartitionAllocBudget(t *testing.T) {
	h := taskHypergraph(workload.Matmul2D(60))
	cfg := hypergraph.Config{K: 4, Seed: 1, UBFactor: 1, Nruns: 20, VCycles: 2}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := hypergraph.Partition(h, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("Partition(Matmul2D(60), K=4) allocated %.1f MB", mb)
	if mb > 32 {
		t.Fatalf("Partition allocated %.1f MB, budget 32 MB", mb)
	}
}
