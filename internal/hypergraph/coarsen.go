package hypergraph

import (
	"math/rand"
	"slices"
)

// coarsening contracts pairs of heavily connected vertices, producing a
// smaller hypergraph that preserves the cut structure. We use
// heavy-connectivity matching: each unmatched vertex (visited in random
// order) is matched with the unmatched vertex it shares the most net
// weight with, rating each shared net n as weight(n)/(|n|-1) as in
// hMETIS' edge-coarsening scheme.

// maxNetSizeForMatching bounds the nets considered while rating matches;
// gigantic nets connect almost everything and carry no locality signal.
const maxNetSizeForMatching = 4096

// match returns, for each vertex, its matched partner (or itself) and the
// number of coarse vertices. ops counts rating work for cost accounting.
func match(h *Hypergraph, rng *rand.Rand) (partner []int32, coarse int, ops int64) {
	n := h.NumVertices()
	partner = make([]int32, n)
	for v := range partner {
		partner[v] = -1
	}
	order := rng.Perm(n)
	// Dense epoch-marked scoring: score[u] is live only when mark[u]
	// equals the current vertex's epoch, so the arrays reset in O(1) per
	// vertex instead of clearing a map. Scores accumulate per net in
	// incidence order, as the map-based version did.
	score := make([]float64, n)
	seen := make([]int32, n)
	for i := range seen {
		seen[i] = -1
	}
	cands := make([]int32, 0, 64)
	for epoch, v := range order {
		if partner[v] >= 0 {
			continue
		}
		cands = cands[:0]
		for _, ni := range h.Incidence(v) {
			net := h.Net(int(ni))
			if len(net) > maxNetSizeForMatching {
				continue
			}
			r := float64(h.NetWeight(int(ni))) / float64(len(net)-1)
			for _, u := range net {
				if int(u) != v && partner[u] < 0 {
					if seen[u] != int32(epoch) {
						seen[u] = int32(epoch)
						score[u] = r
						cands = append(cands, u)
					} else {
						score[u] += r
					}
				}
			}
			ops += int64(len(net))
		}
		// The candidates are distinct, so the winner is a lexicographic
		// argmax independent of the order they were found in: highest
		// score, then the lighter partner (to keep weights balanced),
		// then the lower index.
		best := int32(-1)
		bestScore := 0.0
		for _, u := range cands {
			s := score[u]
			if s > bestScore || (s == bestScore && best >= 0 && lighterOrLower(h, u, best)) {
				best, bestScore = u, s
			}
		}
		if best >= 0 {
			partner[v] = best
			partner[best] = int32(v)
		} else {
			partner[v] = int32(v)
		}
	}
	coarse = 0
	for v := range partner {
		if int(partner[v]) >= v {
			coarse++
		}
	}
	return partner, coarse, ops
}

// lighterOrLower reports whether u beats v as a match partner on a score
// tie: the lighter vertex wins, then the lower index.
func lighterOrLower(h *Hypergraph, u, v int32) bool {
	wu, wv := h.VertexWeight(int(u)), h.VertexWeight(int(v))
	if wu != wv {
		return wu < wv
	}
	return u < v
}

// contract builds the coarse hypergraph for a matching. fine2coarse maps
// every fine vertex to its coarse vertex. Identical coarse nets are merged
// (their weights summed) and single-pin nets dropped.
func contract(h *Hypergraph, partner []int32) (coarseH *Hypergraph, fine2coarse []int32, ops int64) {
	n := h.NumVertices()
	fine2coarse = make([]int32, n)
	next := int32(0)
	for v := 0; v < n; v++ {
		if int(partner[v]) >= v { // representative of its pair (or singleton)
			fine2coarse[v] = next
			if int(partner[v]) != v {
				fine2coarse[partner[v]] = next
			}
			next++
		}
	}
	coarseH = New(int(next))
	for v := 0; v < n; v++ {
		if int(partner[v]) >= v {
			w := h.VertexWeight(v)
			if int(partner[v]) != v {
				w += h.VertexWeight(int(partner[v]))
			}
			coarseH.SetVertexWeight(int(fine2coarse[v]), w)
		}
	}
	type netKey string
	merged := make(map[netKey]int) // key -> net index in coarseH
	buf := make([]int32, 0, 64)
	for ni := 0; ni < h.NumNets(); ni++ {
		net := h.Net(ni)
		buf = buf[:0]
		for _, p := range net {
			buf = append(buf, fine2coarse[p])
		}
		ops += int64(len(net))
		slices.Sort(buf)
		uniq := buf[:0]
		for i, p := range buf {
			if i == 0 || p != buf[i-1] {
				uniq = append(uniq, p)
			}
		}
		if len(uniq) < 2 {
			continue
		}
		key := make([]byte, 0, len(uniq)*4)
		for _, p := range uniq {
			key = append(key, byte(p), byte(p>>8), byte(p>>16), byte(p>>24))
		}
		if idx, ok := merged[netKey(key)]; ok {
			coarseH.netWeights[idx] += h.NetWeight(ni)
			continue
		}
		coarseH.AddNet(h.NetWeight(ni), uniq...)
		merged[netKey(key)] = coarseH.NumNets() - 1
	}
	return coarseH, fine2coarse, ops
}
