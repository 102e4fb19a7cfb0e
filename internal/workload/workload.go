// Package workload generates the task/data instances used in the paper's
// evaluation (§V-A): 2D blocked matrix multiplication (natural and
// randomized submission order), 3D blocked matrix multiplication, the task
// set of a tiled Cholesky decomposition with dependencies removed, and a
// sparse 2D matrix multiplication where 98% of the tasks are dropped.
//
// All generators reproduce the exact sharing structure, data sizes and
// flop counts of the paper's cuBLAS workloads (960x960 single-precision
// tiles on Tesla V100 GPUs).
package workload

import (
	"fmt"
	"math/rand"

	"memsched/internal/taskgraph"
)

// Tile is the tile edge used by the paper's cuBLAS kernels (960x960
// single-precision elements).
const Tile = 960

// TileBytes is the footprint of one 960x960 float32 tile.
const TileBytes = Tile * Tile * 4 // 3 686 400 bytes

// KDim2D is the common (reduction) dimension of the 2D matrix product:
// each data item is a block-row of A or block-column of B of size
// 960 x 3840, so that the working set of an NxN task grid matches the
// paper's 140 MB (N=5) to 8400 MB (N=300) range.
const KDim2D = 4 * Tile

// Data2DBytes is the footprint of one block-row of A or block-column of B
// in the 2D matrix product (14.7456 MB).
const Data2DBytes = Tile * KDim2D * 4

// Flops2D is the work of one 2D product task (one block-row times one
// block-column): 2 * 960 * 960 * 3840 flops.
const Flops2D = 2 * float64(Tile) * float64(Tile) * float64(KDim2D)

// Flops3D is the work of one 3D product task (one 960^3 tile product).
const Flops3D = 2 * float64(Tile) * float64(Tile) * float64(Tile)

// Cholesky kernel flop counts for 960x960 tiles.
var (
	flopsPOTRF = float64(Tile) * float64(Tile) * float64(Tile) / 3
	flopsTRSM  = float64(Tile) * float64(Tile) * float64(Tile)
	flopsSYRK  = float64(Tile) * float64(Tile) * float64(Tile)
	flopsGEMM  = 2 * float64(Tile) * float64(Tile) * float64(Tile)
)

// Matmul2D builds the paper's main scenario: C = A x B decomposed into
// n x n tasks, task T(i,j) multiplying block-row i of A with block-column
// j of B. Data items are the n block-rows and n block-columns (14.7456 MB
// each); tasks are submitted row by row.
func Matmul2D(n int) *taskgraph.Instance {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Matmul2D n = %d", n))
	}
	b := taskgraph.NewBuilder(fmt.Sprintf("matmul2d(n=%d)", n))
	rows := make([]taskgraph.DataID, n)
	cols := make([]taskgraph.DataID, n)
	for i := 0; i < n; i++ {
		rows[i] = b.AddData(fmt.Sprintf("A[%d]", i), Data2DBytes)
	}
	for j := 0; j < n; j++ {
		cols[j] = b.AddData(fmt.Sprintf("B[%d]", j), Data2DBytes)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.AddTask(fmt.Sprintf("C[%d,%d]", i, j), Flops2D, rows[i], cols[j])
		}
	}
	return b.Build()
}

// Matmul2DRandomized is Matmul2D with the task submission order shuffled
// (Figure 9). The shuffle is deterministic for a given seed.
func Matmul2DRandomized(n int, seed int64) *taskgraph.Instance {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Matmul2DRandomized n = %d", n))
	}
	b := taskgraph.NewBuilder(fmt.Sprintf("matmul2d-rand(n=%d,seed=%d)", n, seed))
	rows := make([]taskgraph.DataID, n)
	cols := make([]taskgraph.DataID, n)
	for i := 0; i < n; i++ {
		rows[i] = b.AddData(fmt.Sprintf("A[%d]", i), Data2DBytes)
	}
	for j := 0; j < n; j++ {
		cols[j] = b.AddData(fmt.Sprintf("B[%d]", j), Data2DBytes)
	}
	type cell struct{ i, j int }
	cells := make([]cell, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cells = append(cells, cell{i, j})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(a, z int) { cells[a], cells[z] = cells[z], cells[a] })
	for _, c := range cells {
		b.AddTask(fmt.Sprintf("C[%d,%d]", c.i, c.j), Flops2D, rows[c.i], cols[c.j])
	}
	return b.Build()
}

// Matmul3D builds the 3D variant (Figure 10): the product is decomposed
// into n^3 elementary tile products T(i,j,k) reading tile A(i,k) and tile
// B(k,j). There are 2n^2 tile data items of 3.6864 MB. The final
// summation is not modeled, matching the paper ("we do not here consider
// the final summation").
func Matmul3D(n int) *taskgraph.Instance {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Matmul3D n = %d", n))
	}
	b := taskgraph.NewBuilder(fmt.Sprintf("matmul3d(n=%d)", n))
	a := make([]taskgraph.DataID, n*n)
	bb := make([]taskgraph.DataID, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a[i*n+k] = b.AddData(fmt.Sprintf("A[%d,%d]", i, k), TileBytes)
		}
	}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			bb[k*n+j] = b.AddData(fmt.Sprintf("B[%d,%d]", k, j), TileBytes)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				b.AddTask(fmt.Sprintf("C[%d,%d,%d]", i, j, k), Flops3D, a[i*n+k], bb[k*n+j])
			}
		}
	}
	return b.Build()
}

// Cholesky builds the task set of an n x n tiled Cholesky decomposition
// with all inter-task dependencies removed (Figure 11): only the input
// tiles read by each kernel remain. Data items are the n(n+1)/2 tiles of
// the lower triangle; kernels are POTRF (reads the diagonal tile), TRSM
// (diagonal tile + panel tile), SYRK (panel tile + updated diagonal tile)
// and GEMM (two panel tiles + the updated tile, i.e. three inputs).
func Cholesky(n int) *taskgraph.Instance {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Cholesky n = %d", n))
	}
	b := taskgraph.NewBuilder(fmt.Sprintf("cholesky(n=%d)", n))
	tiles := make(map[[2]int]taskgraph.DataID, n*(n+1)/2)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			tiles[[2]int{i, j}] = b.AddData(fmt.Sprintf("A[%d,%d]", i, j), TileBytes)
		}
	}
	for k := 0; k < n; k++ {
		b.AddTask(fmt.Sprintf("POTRF(%d)", k), flopsPOTRF, tiles[[2]int{k, k}])
		for i := k + 1; i < n; i++ {
			b.AddTask(fmt.Sprintf("TRSM(%d,%d)", i, k), flopsTRSM,
				tiles[[2]int{k, k}], tiles[[2]int{i, k}])
		}
		for i := k + 1; i < n; i++ {
			b.AddTask(fmt.Sprintf("SYRK(%d,%d)", i, k), flopsSYRK,
				tiles[[2]int{i, k}], tiles[[2]int{i, i}])
			for j := k + 1; j < i; j++ {
				b.AddTask(fmt.Sprintf("GEMM(%d,%d,%d)", i, j, k), flopsGEMM,
					tiles[[2]int{i, k}], tiles[[2]int{j, k}], tiles[[2]int{i, j}])
			}
		}
	}
	return b.Build()
}

// DefaultSparseKeep is the fraction of tasks kept by the paper's sparse
// scenario ("we remove 98% of the tasks").
const DefaultSparseKeep = 0.02

// Sparse2D builds the sparse 2D matrix multiplication (Figures 12 and 13):
// the Matmul2D task grid with only a fraction keep of the tasks retained
// (chosen uniformly at random with the given seed). All 2n data items are
// kept so the working set matches the dense scenario; untouched data is
// simply never transferred. At least one task is always retained.
func Sparse2D(n int, keep float64, seed int64) *taskgraph.Instance {
	if n <= 0 || keep <= 0 || keep > 1 {
		panic(fmt.Sprintf("workload: Sparse2D n = %d keep = %g", n, keep))
	}
	b := taskgraph.NewBuilder(fmt.Sprintf("sparse2d(n=%d,keep=%g,seed=%d)", n, keep, seed))
	rows := make([]taskgraph.DataID, n)
	cols := make([]taskgraph.DataID, n)
	for i := 0; i < n; i++ {
		rows[i] = b.AddData(fmt.Sprintf("A[%d]", i), Data2DBytes)
	}
	for j := 0; j < n; j++ {
		cols[j] = b.AddData(fmt.Sprintf("B[%d]", j), Data2DBytes)
	}
	rng := rand.New(rand.NewSource(seed))
	added := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.Float64() < keep {
				b.AddTask(fmt.Sprintf("C[%d,%d]", i, j), Flops2D, rows[i], cols[j])
				added++
			}
		}
	}
	if added == 0 {
		b.AddTask("C[0,0]", Flops2D, rows[0], cols[0])
	}
	return b.Build()
}

// Random builds an irregular instance for property-based tests: nTasks
// tasks over nData data items, each task reading between 1 and maxInputs
// distinct data chosen uniformly. Sizes vary between half and twice the
// 3.6864 MB tile, flops between half and twice the 3D tile product.
func Random(nTasks, nData, maxInputs int, seed int64) *taskgraph.Instance {
	if nTasks <= 0 || nData <= 0 || maxInputs <= 0 {
		panic("workload: Random requires positive parameters")
	}
	if maxInputs > nData {
		maxInputs = nData
	}
	rng := rand.New(rand.NewSource(seed))
	b := taskgraph.NewBuilder(fmt.Sprintf("random(t=%d,d=%d,in=%d,seed=%d)", nTasks, nData, maxInputs, seed))
	ids := make([]taskgraph.DataID, nData)
	for i := 0; i < nData; i++ {
		size := int64(float64(TileBytes) * (0.5 + 1.5*rng.Float64()))
		ids[i] = b.AddData(fmt.Sprintf("D[%d]", i), size)
	}
	for t := 0; t < nTasks; t++ {
		k := 1 + rng.Intn(maxInputs)
		perm := rng.Perm(nData)[:k]
		in := make([]taskgraph.DataID, 0, k)
		for _, p := range perm {
			in = append(in, ids[p])
		}
		flops := Flops3D * (0.5 + 1.5*rng.Float64())
		b.AddTask(fmt.Sprintf("T[%d]", t), flops, in...)
	}
	return b.Build()
}

// Matmul2DCustom generalizes Matmul2D: n x n tasks whose data items are
// strips of kTiles 960-wide tiles. kTiles controls the
// computation-to-transfer ratio of one task (the paper uses kTiles = 4).
func Matmul2DCustom(n, kTiles int) *taskgraph.Instance {
	if n <= 0 || kTiles <= 0 {
		panic(fmt.Sprintf("workload: Matmul2DCustom n = %d kTiles = %d", n, kTiles))
	}
	size := int64(Tile) * int64(Tile) * int64(kTiles) * 4
	flops := 2 * float64(Tile) * float64(Tile) * float64(Tile) * float64(kTiles)
	b := taskgraph.NewBuilder(fmt.Sprintf("matmul2d(n=%d,k=%d)", n, kTiles))
	rows := make([]taskgraph.DataID, n)
	cols := make([]taskgraph.DataID, n)
	for i := 0; i < n; i++ {
		rows[i] = b.AddData(fmt.Sprintf("A[%d]", i), size)
	}
	for j := 0; j < n; j++ {
		cols[j] = b.AddData(fmt.Sprintf("B[%d]", j), size)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.AddTask(fmt.Sprintf("C[%d,%d]", i, j), flops, rows[i], cols[j])
		}
	}
	return b.Build()
}

// Matmul3DSummed is Matmul3D with the accumulator tile included as a
// third input of every task: T(i,j,k) reads A(i,k), B(k,j) and C(i,j).
// The paper excludes the summation "to concentrate on the
// computationally-intensive tasks"; this variant exercises three-input
// tasks (and hence the DARTS 3inputs branch) on a matmul structure.
func Matmul3DSummed(n int) *taskgraph.Instance {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Matmul3DSummed n = %d", n))
	}
	b := taskgraph.NewBuilder(fmt.Sprintf("matmul3d-summed(n=%d)", n))
	a := make([]taskgraph.DataID, n*n)
	bb := make([]taskgraph.DataID, n*n)
	cc := make([]taskgraph.DataID, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			a[i*n+k] = b.AddData(fmt.Sprintf("A[%d,%d]", i, k), TileBytes)
		}
	}
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			bb[k*n+j] = b.AddData(fmt.Sprintf("B[%d,%d]", k, j), TileBytes)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cc[i*n+j] = b.AddData(fmt.Sprintf("C[%d,%d]", i, j), TileBytes)
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				b.AddTask(fmt.Sprintf("C[%d,%d,%d]", i, j, k), Flops3D,
					a[i*n+k], bb[k*n+j], cc[i*n+j])
			}
		}
	}
	return b.Build()
}

// Matmul2DWithOutputs is Matmul2D with each task writing its 960x960
// tile of C back to host memory, exercising the output extension the
// paper's §I sets aside ("Our model could however easily be extended to
// integrate task output").
func Matmul2DWithOutputs(n int) *taskgraph.Instance {
	if n <= 0 {
		panic(fmt.Sprintf("workload: Matmul2DWithOutputs n = %d", n))
	}
	b := taskgraph.NewBuilder(fmt.Sprintf("matmul2d-out(n=%d)", n))
	rows := make([]taskgraph.DataID, n)
	cols := make([]taskgraph.DataID, n)
	for i := 0; i < n; i++ {
		rows[i] = b.AddData(fmt.Sprintf("A[%d]", i), Data2DBytes)
	}
	for j := 0; j < n; j++ {
		cols[j] = b.AddData(fmt.Sprintf("B[%d]", j), Data2DBytes)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			b.AddTaskWithOutput(fmt.Sprintf("C[%d,%d]", i, j), Flops2D, TileBytes, rows[i], cols[j])
		}
	}
	return b.Build()
}

// Names lists the workloads ByName builds, in help-text order.
const Names = "matmul2d, matmul2d-rand, matmul3d, cholesky, sparse2d"

// builders is the one named-workload table, shared by the memsched CLI
// and the job service. keep is read by sparse2d only, seed by
// matmul2d-rand and sparse2d.
var builders = map[string]func(n int, keep float64, seed int64) *taskgraph.Instance{
	"matmul2d":      func(n int, _ float64, _ int64) *taskgraph.Instance { return Matmul2D(n) },
	"matmul2d-rand": func(n int, _ float64, seed int64) *taskgraph.Instance { return Matmul2DRandomized(n, seed) },
	"matmul3d":      func(n int, _ float64, _ int64) *taskgraph.Instance { return Matmul3D(n) },
	"cholesky":      func(n int, _ float64, _ int64) *taskgraph.Instance { return Cholesky(n) },
	"sparse2d":      Sparse2D,
}

// Known reports an error unless ByName builds the named workload; it
// builds nothing, so admission control can call it on every request.
func Known(name string) error {
	if _, ok := builders[name]; !ok {
		return fmt.Errorf("unknown workload %q (%s)", name, Names)
	}
	return nil
}

// ByName builds the named workload (see Names).
func ByName(name string, n int, keep float64, seed int64) (*taskgraph.Instance, error) {
	if err := Known(name); err != nil {
		return nil, err
	}
	return builders[name](n, keep, seed), nil
}
