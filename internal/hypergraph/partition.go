package hypergraph

import (
	"fmt"
	"math/rand"
)

// Config parameterizes Partition. The defaults mirror the paper's hMETIS
// settings (§IV-B): UBfactor 1, Nruns 20, V-cycles 2.
type Config struct {
	// K is the number of parts. Required, >= 1.
	K int
	// UBFactor is the allowed imbalance of each bisection, in percent,
	// as defined by hMETIS: each side may take up to (50+UBFactor)% of
	// the weight (scaled by its target fraction for uneven splits).
	// Zero selects 1, the paper's setting for almost perfectly balanced
	// partitions.
	UBFactor float64
	// Seed drives all random choices. Runs are deterministic per seed.
	Seed int64
	// Nruns is the number of random initial bisections tried at the
	// coarsest level (best kept). Zero selects 20, the paper's setting.
	Nruns int
	// VCycles is the number of independent multilevel runs; the best
	// final partition wins. Zero selects 2, the paper's setting.
	VCycles int
	// MinCoarse stops coarsening below this many vertices. Zero
	// selects 64.
	MinCoarse int
	// MaxPasses bounds FM refinement passes per level. Zero selects 4.
	MaxPasses int
}

func (c Config) withDefaults() Config {
	if c.UBFactor == 0 {
		c.UBFactor = 1
	}
	if c.Nruns == 0 {
		c.Nruns = 20
	}
	if c.VCycles == 0 {
		c.VCycles = 2
	}
	if c.MinCoarse == 0 {
		c.MinCoarse = 64
	}
	if c.MaxPasses == 0 {
		c.MaxPasses = 4
	}
	return c
}

// Stats reports the work done by Partition, for the scheduler cost model.
type Stats struct {
	// Ops approximates the pin traversals performed.
	Ops int64
	// Cut is the connectivity-1 objective of the returned partition.
	Cut int64
}

// Partition splits the vertices of h into cfg.K parts of balanced weight
// minimizing cut net weight, by multilevel recursive bisection. It returns
// the part index of every vertex.
func Partition(h *Hypergraph, cfg Config) ([]int, Stats, error) {
	if cfg.K < 1 {
		return nil, Stats{}, fmt.Errorf("hypergraph: K = %d", cfg.K)
	}
	cfg = cfg.withDefaults()
	if cfg.K == 1 {
		return make([]int, h.NumVertices()), Stats{}, nil
	}
	// Each V-cycle is an independent multilevel run with its own RNG
	// stream; the first cycle with the lowest objective wins. The cycles
	// run in sequence: sweeps already run cells in parallel, so extra
	// goroutines here only add contention and peak heap.
	var stats Stats
	bestObj := int64(-1)
	best := make([]int, h.NumVertices())
	cur := make([]int, h.NumVertices())
	ids := make([]int32, h.NumVertices())
	for v := range ids {
		ids[v] = int32(v)
	}
	for cycle := 0; cycle < cfg.VCycles; cycle++ {
		rng := rand.New(rand.NewSource(cfg.Seed + int64(cycle)*7919))
		stats.Ops += recursiveBisect(h, ids, cfg.K, 0, cfg, rng, cur)
		if cfg.K > 2 {
			// Direct K-way refinement sees gains across the bisection
			// cuts that recursive FM cannot.
			total := h.TotalVertexWeight()
			slack := int64(float64(total) * cfg.UBFactor / 100)
			if slack < 1 {
				slack = 1
			}
			maxW := make([]int64, cfg.K)
			for i := range maxW {
				maxW[i] = total/int64(cfg.K) + slack
			}
			stats.Ops += kwayRefine(h, cur, cfg.K, maxW, rng, cfg.MaxPasses)
		}
		obj := h.ConnectivityMinusOne(cur, cfg.K)
		stats.Ops += int64(h.NumPins())
		if bestObj < 0 || obj < bestObj {
			bestObj = obj
			best, cur = cur, best
		}
	}
	stats.Cut = bestObj
	return best, stats, nil
}

// recursiveBisect splits the sub-hypergraph induced by the vertices ids of
// h into k parts labeled firstLabel..firstLabel+k-1, writing the result
// into out (indexed by original vertex id). Returns ops performed.
func recursiveBisect(h *Hypergraph, ids []int32, k, firstLabel int, cfg Config, rng *rand.Rand, out []int) int64 {
	if k == 1 {
		for _, v := range ids {
			out[v] = firstLabel
		}
		return 0
	}
	sub, subIDs := induce(h, ids)
	k0 := (k + 1) / 2
	k1 := k - k0
	total := sub.TotalVertexWeight()
	t0 := total * int64(k0) / int64(k)
	// hMETIS-style caps: each side may exceed its target by UBFactor% of
	// the total weight.
	slack := int64(float64(total) * cfg.UBFactor / 100)
	if slack < 1 {
		slack = 1
	}
	maxW := [2]int64{t0 + slack, (total - t0) + slack}
	part, ops := multilevelBisect(sub, [2]int64{t0, total - t0}, maxW, cfg, rng)
	var side0, side1 []int32
	for i, v := range subIDs {
		if part[i] == 0 {
			side0 = append(side0, v)
		} else {
			side1 = append(side1, v)
		}
	}
	ops += recursiveBisect(h, side0, k0, firstLabel, cfg, rng, out)
	ops += recursiveBisect(h, side1, k1, firstLabel+k0, cfg, rng, out)
	return ops
}

// induce builds the sub-hypergraph of h restricted to ids. Nets keep the
// pins inside ids; nets reduced below two pins are dropped.
func induce(h *Hypergraph, ids []int32) (*Hypergraph, []int32) {
	local := make(map[int32]int32, len(ids))
	for i, v := range ids {
		local[v] = int32(i)
	}
	sub := New(len(ids))
	for i, v := range ids {
		sub.SetVertexWeight(i, h.VertexWeight(int(v)))
	}
	pins := make([]int32, 0, 64)
	for n := 0; n < h.NumNets(); n++ {
		pins = pins[:0]
		for _, p := range h.Net(n) {
			if lp, ok := local[p]; ok {
				pins = append(pins, lp)
			}
		}
		if len(pins) >= 2 {
			sub.AddNet(h.NetWeight(n), pins...)
		}
	}
	return sub, ids
}

// multilevelBisect computes a 2-way partition of h with the given target
// side weights and caps, using the multilevel scheme.
func multilevelBisect(h *Hypergraph, targetW, maxW [2]int64, cfg Config, rng *rand.Rand) ([]int, int64) {
	var ops int64
	if h.NumVertices() <= cfg.MinCoarse {
		part, o := initialBisect(h, targetW, maxW, cfg, rng)
		return part, ops + o
	}
	partner, coarseCount, o := match(h, rng)
	ops += o
	// Stop coarsening when matching stalls (< 10% reduction).
	if coarseCount > h.NumVertices()*9/10 {
		part, o := initialBisect(h, targetW, maxW, cfg, rng)
		return part, ops + o
	}
	coarseH, fine2coarse, o := contract(h, partner)
	ops += o
	coarsePart, o := multilevelBisect(coarseH, targetW, maxW, cfg, rng)
	ops += o
	part := make([]int, h.NumVertices())
	for v := range part {
		part[v] = coarsePart[fine2coarse[v]]
	}
	b := newBisection(h, part, maxW)
	ops += b.refine(cfg.MaxPasses)
	return part, ops
}

// initialBisect computes the best of cfg.Nruns greedy-growth bisections of
// the (coarsest) hypergraph, each refined by FM.
func initialBisect(h *Hypergraph, targetW, maxW [2]int64, cfg Config, rng *rand.Rand) ([]int, int64) {
	var ops int64
	n := h.NumVertices()
	best := make([]int, n)
	bestCut := int64(-1)
	bestFeasible := false
	cur := make([]int, n)
	for run := 0; run < cfg.Nruns; run++ {
		growBisect(h, targetW[0], rng, cur)
		b := newBisection(h, cur, maxW)
		ops += b.refine(cfg.MaxPasses)
		cut := b.cut()
		feas := b.feasible()
		better := bestCut < 0 ||
			(feas && !bestFeasible) ||
			(feas == bestFeasible && cut < bestCut)
		if better {
			bestCut = cut
			bestFeasible = feas
			copy(best, cur)
		}
	}
	return best, ops
}

// growBisect seeds part 0 with a random vertex and grows it by maximum
// connectivity to the grown set until it reaches target weight; all other
// vertices form part 1. The result is written into out.
func growBisect(h *Hypergraph, target int64, rng *rand.Rand, out []int) {
	n := h.NumVertices()
	for v := range out {
		out[v] = 1
	}
	inSet := make([]bool, n)
	score := make([]float64, n)
	seed := rng.Intn(n)
	var w int64
	add := func(v int) {
		inSet[v] = true
		out[v] = 0
		w += h.VertexWeight(v)
		for _, ni := range h.Incidence(v) {
			net := h.Net(int(ni))
			if len(net) > maxNetSizeForMatching {
				continue
			}
			r := float64(h.NetWeight(int(ni))) / float64(len(net)-1)
			for _, u := range net {
				if !inSet[u] {
					score[u] += r
				}
			}
		}
	}
	add(seed)
	for w < target {
		best := -1
		bestScore := -1.0
		for v := 0; v < n; v++ {
			if !inSet[v] && score[v] > bestScore {
				best, bestScore = v, score[v]
			}
		}
		if best < 0 {
			break
		}
		if bestScore == 0 {
			// Disconnected remainder: take a random outside vertex.
			cands := make([]int, 0, n)
			for v := 0; v < n; v++ {
				if !inSet[v] {
					cands = append(cands, v)
				}
			}
			best = cands[rng.Intn(len(cands))]
		}
		add(best)
	}
}
