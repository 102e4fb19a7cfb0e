package hypergraph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMatchPairsHeavyNeighbors(t *testing.T) {
	// Two tight pairs joined weakly: matching must pair (0,1) and (2,3).
	h := New(4)
	h.AddNet(10, 0, 1)
	h.AddNet(10, 2, 3)
	h.AddNet(1, 1, 2)
	rng := rand.New(rand.NewSource(1))
	partner, coarse, _ := match(h, rng)
	if coarse != 2 {
		t.Fatalf("coarse count = %d", coarse)
	}
	if partner[0] != 1 || partner[1] != 0 || partner[2] != 3 || partner[3] != 2 {
		t.Fatalf("partners = %v", partner)
	}
}

func TestContractMergesIdenticalNets(t *testing.T) {
	// Nets {0,1} and {2,3} both contract to the same coarse pair if 0
	// matches 2 and 1 matches 3.
	h := New(4)
	h.AddNet(3, 0, 1)
	h.AddNet(5, 2, 3)
	h.AddNet(2, 0, 2) // disappears: both pins land in coarse vertex 0
	partner := []int32{2, 3, 0, 1}
	ch, f2c, _ := contract(h, partner)
	if ch.NumVertices() != 2 {
		t.Fatalf("coarse vertices = %d", ch.NumVertices())
	}
	if f2c[0] != f2c[2] || f2c[1] != f2c[3] || f2c[0] == f2c[1] {
		t.Fatalf("mapping = %v", f2c)
	}
	// One merged net of weight 3+5, the single-pin net dropped.
	if ch.NumNets() != 1 || ch.NetWeight(0) != 8 {
		t.Fatalf("coarse nets: %d nets, weight %d", ch.NumNets(), ch.NetWeight(0))
	}
	// Vertex weights add up.
	if ch.VertexWeight(0)+ch.VertexWeight(1) != 4 {
		t.Fatalf("weights: %d + %d", ch.VertexWeight(0), ch.VertexWeight(1))
	}
}

// TestContractPreservesTotals: contraction never changes total vertex
// weight, and every coarse net weight is accounted for by fine nets.
func TestContractPreservesTotals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(40)
		h := New(n)
		for i := 0; i < 2*n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				h.AddNet(int64(1+rng.Intn(5)), int32(a), int32(b))
			}
		}
		if h.NumNets() == 0 {
			return true
		}
		partner, _, _ := match(h, rng)
		ch, f2c, _ := contract(h, partner)
		if ch.TotalVertexWeight() != h.TotalVertexWeight() {
			return false
		}
		for v := 0; v < n; v++ {
			if int(f2c[v]) >= ch.NumVertices() {
				return false
			}
		}
		return ch.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionK1AndTrivial(t *testing.T) {
	h := twoClusters(5)
	part, stats, err := Partition(h, Config{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("K=1 must put everything in part 0")
		}
	}
	if stats.Ops != 0 {
		t.Fatalf("K=1 charged %d ops", stats.Ops)
	}
	if _, _, err := Partition(h, Config{K: 0}); err == nil {
		t.Fatal("K=0 accepted")
	}
}

func TestPartitionMoreVerticesThanParts(t *testing.T) {
	// K close to the vertex count still yields a complete assignment.
	h := New(6)
	h.AddNet(1, 0, 1, 2)
	h.AddNet(1, 3, 4, 5)
	part, _, err := Partition(h, Config{K: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := h.PartWeights(part, 4)
	var total int64
	for _, pw := range w {
		total += pw
	}
	if total != 6 {
		t.Fatalf("weights %v", w)
	}
}

func TestRefineImprovesBadStart(t *testing.T) {
	// Start from a deliberately bad balanced bisection of two clusters
	// (half of each cluster on each side) and check FM recovers the
	// single-bridge cut.
	h := twoClusters(20)
	part := make([]int, 40)
	for v := 0; v < 40; v++ {
		part[v] = v % 2 // interleaved: terrible cut
	}
	b := newBisection(h, part, [2]int64{21, 21})
	before := b.cut()
	b.refine(8)
	after := b.cut()
	if after >= before {
		t.Fatalf("refinement did not improve: %d -> %d", before, after)
	}
	if !b.feasible() {
		t.Fatal("refinement broke balance")
	}
}

func TestRebalanceFixesOverweight(t *testing.T) {
	h := twoClusters(10)
	part := make([]int, 20) // everything on side 0
	b := newBisection(h, part, [2]int64{11, 11})
	if b.feasible() {
		t.Fatal("setup should be infeasible")
	}
	b.rebalance()
	if !b.feasible() {
		t.Fatalf("rebalance failed: weights %v", b.partW)
	}
}

func TestAddNetEdgeCases(t *testing.T) {
	h := New(3)
	h.AddNet(1, 0)       // single pin: dropped
	h.AddNet(1, 1, 1, 1) // duplicates collapse to single pin: dropped
	if h.NumNets() != 0 {
		t.Fatalf("nets = %d", h.NumNets())
	}
	h.AddNet(1, 0, 1, 1) // duplicates collapse to {0,1}: kept
	if h.NumNets() != 1 || len(h.Net(0)) != 2 {
		t.Fatalf("nets = %d", h.NumNets())
	}
	h.AddNet(1, 2, 0, 2, 1, 0) // first occurrences, in order
	if got := h.Net(1); !slices.Equal(got, []int32{2, 0, 1}) {
		t.Fatalf("net 1 = %v, want [2 0 1]", got)
	}
	h.epoch = ^uint32(0) // the next net wraps the pin stamps
	h.AddNet(1, 1, 2, 1)
	if got := h.Net(2); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("net 2 after stamp wrap = %v, want [1 2]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad pin")
		}
	}()
	h.AddNet(1, 0, 99)
}

// TestKWayRefineImprovesOrKeeps: direct K-way refinement never worsens
// the connectivity-1 objective and never breaks the balance caps.
func TestKWayRefineImprovesOrKeeps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12 + rng.Intn(60)
		k := 3 + rng.Intn(3)
		h := New(n)
		for i := 0; i < 3*n; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				h.AddNet(int64(1+rng.Intn(4)), int32(a), int32(b))
			}
		}
		if h.NumNets() == 0 {
			return true
		}
		part := make([]int, n)
		for v := range part {
			part[v] = rng.Intn(k)
		}
		total := h.TotalVertexWeight()
		maxW := make([]int64, k)
		for i := range maxW {
			maxW[i] = total/int64(k) + total/4 + 1
		}
		// Start from a balanced-enough assignment: clamp overweight.
		w := h.PartWeights(part, k)
		for v := range part {
			if w[part[v]] > maxW[part[v]] {
				for to := 0; to < k; to++ {
					if w[to]+h.VertexWeight(v) <= maxW[to] {
						w[part[v]] -= h.VertexWeight(v)
						w[to] += h.VertexWeight(v)
						part[v] = to
						break
					}
				}
			}
		}
		before := h.ConnectivityMinusOne(part, k)
		kwayRefine(h, part, k, maxW, rng, 4)
		after := h.ConnectivityMinusOne(part, k)
		if after > before {
			return false
		}
		w = h.PartWeights(part, k)
		for i := range w {
			if w[i] > maxW[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueExpand(t *testing.T) {
	h := New(4)
	h.AddNet(2, 0, 1, 2) // triangle: 3 edges of weight 2
	h.AddNet(3, 2, 3)    // single edge
	g := CliqueExpand(h, 0)
	if g.NumVertices() != 4 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Edges: (0,1),(0,2),(1,2) w=2 and (2,3) w=3 -> 4 nets, all 2-pin.
	if g.NumNets() != 4 {
		t.Fatalf("nets = %d", g.NumNets())
	}
	var total int64
	for n := 0; n < g.NumNets(); n++ {
		if len(g.Net(n)) != 2 {
			t.Fatalf("net %d has %d pins", n, len(g.Net(n)))
		}
		total += g.NetWeight(n)
	}
	if total != 3*2+3 {
		t.Fatalf("total edge weight %d, want 9 (the over-counting of SIV-B)", total)
	}
	// Star expansion for big nets.
	big := New(5)
	big.AddNet(1, 0, 1, 2, 3, 4)
	star := CliqueExpand(big, 3)
	if star.NumNets() != 4 { // star around pin 0
		t.Fatalf("star nets = %d", star.NumNets())
	}
}

// TestHypergraphBeatsCliqueOnSharedTriples: on instances where data is
// shared by many tasks, the hypergraph objective of the clique-based
// partition is no better than the native hypergraph partition (the
// paper's SIV-B argument).
func TestHypergraphBeatsCliqueOnSharedTriples(t *testing.T) {
	// 2D-matmul-like: 8x8 tasks, 16 nets of 8 pins each.
	n := 8
	h := New(n * n)
	for i := 0; i < n; i++ {
		row := make([]int32, n)
		col := make([]int32, n)
		for j := 0; j < n; j++ {
			row[j] = int32(i*n + j)
			col[j] = int32(j*n + i)
		}
		h.AddNet(1, row...)
		h.AddNet(1, col...)
	}
	_, native, err := Partition(h, Config{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, clique, err := PartitionClique(h, Config{K: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if native.Cut > clique.Cut {
		t.Fatalf("native hypergraph cut %d worse than clique-expansion cut %d", native.Cut, clique.Cut)
	}
	t.Logf("hypergraph conn-1 = %d, clique-expansion conn-1 = %d", native.Cut, clique.Cut)
}
