// Package hypergraph implements a from-scratch multilevel hypergraph
// partitioner in the style of hMETIS (Karypis & Kumar), the tool the
// paper's hMETIS+R strategy relies on (§IV-B).
//
// Tasks sharing input data are modeled as a hypergraph: one vertex per
// task and one hyperedge (net) per data item connecting all the tasks
// that read it. Partitioning the vertices into K balanced parts while
// minimizing the weight of cut nets yields task subsets with few shared
// data, which is exactly the property the scheduler needs.
//
// The partitioner follows the classic multilevel scheme:
//
//  1. coarsening by heavy-connectivity vertex matching,
//  2. greedy initial bisection of the coarsest hypergraph (best of
//     Nruns random starts),
//  3. uncoarsening with Fiduccia–Mattheyses (FM) refinement at every
//     level,
//
// applied recursively for K-way partitions.
package hypergraph

import (
	"fmt"
	"sort"
)

// Hypergraph is a weighted hypergraph. Vertices are dense ints
// 0..NumVertices-1; nets are lists of distinct pins.
type Hypergraph struct {
	vertexWeights []int64
	nets          [][]int32
	netWeights    []int64
	incidence     [][]int32 // vertex -> net indices, built lazily
	pins          int
	// stamp[v] == epoch marks v as a pin of the net AddNet is adding.
	// Allocated by the first AddNet and reused by every later one.
	stamp []uint32
	epoch uint32
}

// New returns an empty hypergraph with n vertices of unit weight.
func New(n int) *Hypergraph {
	if n <= 0 {
		panic(fmt.Sprintf("hypergraph: %d vertices", n))
	}
	w := make([]int64, n)
	for i := range w {
		w[i] = 1
	}
	return &Hypergraph{vertexWeights: w}
}

// SetVertexWeight overrides the weight of vertex v.
func (h *Hypergraph) SetVertexWeight(v int, w int64) {
	if w <= 0 {
		panic("hypergraph: non-positive vertex weight")
	}
	h.vertexWeights[v] = w
	h.incidence = nil
}

// AddNet adds a net with the given weight connecting the given pins.
// Repeated pins are dropped, keeping the first occurrence of each. Nets
// with fewer than two distinct pins are legal but never cut, so they are
// silently dropped.
func (h *Hypergraph) AddNet(weight int64, pins ...int32) {
	if weight <= 0 {
		panic("hypergraph: non-positive net weight")
	}
	if len(pins) < 2 {
		return
	}
	if h.stamp == nil {
		h.stamp = make([]uint32, len(h.vertexWeights))
	}
	h.epoch++
	if h.epoch == 0 { // wrapped: old marks could alias the new epoch
		clear(h.stamp)
		h.epoch = 1
	}
	cp := make([]int32, 0, len(pins))
	for _, p := range pins {
		if p < 0 || int(p) >= len(h.vertexWeights) {
			panic(fmt.Sprintf("hypergraph: pin %d out of range", p))
		}
		if h.stamp[p] != h.epoch {
			h.stamp[p] = h.epoch
			cp = append(cp, p)
		}
	}
	if len(cp) < 2 {
		return
	}
	h.nets = append(h.nets, cp)
	h.netWeights = append(h.netWeights, weight)
	h.pins += len(cp)
	h.incidence = nil
}

// NumVertices returns the number of vertices.
func (h *Hypergraph) NumVertices() int { return len(h.vertexWeights) }

// NumNets returns the number of nets.
func (h *Hypergraph) NumNets() int { return len(h.nets) }

// NumPins returns the total number of pins over all nets.
func (h *Hypergraph) NumPins() int { return h.pins }

// VertexWeight returns the weight of vertex v.
func (h *Hypergraph) VertexWeight(v int) int64 { return h.vertexWeights[v] }

// TotalVertexWeight returns the sum of all vertex weights.
func (h *Hypergraph) TotalVertexWeight() int64 {
	var s int64
	for _, w := range h.vertexWeights {
		s += w
	}
	return s
}

// Net returns the pins of net n. Callers must not mutate the slice.
func (h *Hypergraph) Net(n int) []int32 { return h.nets[n] }

// NetWeight returns the weight of net n.
func (h *Hypergraph) NetWeight(n int) int64 { return h.netWeights[n] }

// Incidence returns the nets of vertex v. Callers must not mutate it.
func (h *Hypergraph) Incidence(v int) []int32 {
	if h.incidence == nil {
		h.buildIncidence()
	}
	return h.incidence[v]
}

func (h *Hypergraph) buildIncidence() {
	h.incidence = make([][]int32, len(h.vertexWeights))
	deg := make([]int, len(h.vertexWeights))
	for _, net := range h.nets {
		for _, p := range net {
			deg[p]++
		}
	}
	for v := range h.incidence {
		h.incidence[v] = make([]int32, 0, deg[v])
	}
	for n, net := range h.nets {
		for _, p := range net {
			h.incidence[p] = append(h.incidence[p], int32(n))
		}
	}
}

// Cut returns the total weight of nets spanning more than one part under
// the given assignment.
func (h *Hypergraph) Cut(part []int) int64 {
	var cut int64
	for n, net := range h.nets {
		p0 := part[net[0]]
		for _, p := range net[1:] {
			if part[p] != p0 {
				cut += h.netWeights[n]
				break
			}
		}
	}
	return cut
}

// ConnectivityMinusOne returns the sum over nets of (lambda-1)*weight,
// where lambda is the number of distinct parts a net touches. This is the
// objective hMETIS optimizes for K-way partitions; for K=2 it equals Cut.
func (h *Hypergraph) ConnectivityMinusOne(part []int, k int) int64 {
	var obj int64
	mark := make([]int, k)
	for i := range mark {
		mark[i] = -1
	}
	for n, net := range h.nets {
		lambda := int64(0)
		for _, p := range net {
			if mark[part[p]] != n {
				mark[part[p]] = n
				lambda++
			}
		}
		obj += (lambda - 1) * h.netWeights[n]
	}
	return obj
}

// PartWeights returns the total vertex weight of each of the k parts.
func (h *Hypergraph) PartWeights(part []int, k int) []int64 {
	w := make([]int64, k)
	for v, p := range part {
		w[p] += h.vertexWeights[v]
	}
	return w
}

// Validate checks structural consistency (used by tests).
func (h *Hypergraph) Validate() error {
	for n, net := range h.nets {
		if len(net) < 2 {
			return fmt.Errorf("net %d has %d pins", n, len(net))
		}
		sorted := append([]int32(nil), net...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i := 1; i < len(sorted); i++ {
			if sorted[i] == sorted[i-1] {
				return fmt.Errorf("net %d has duplicate pin %d", n, sorted[i])
			}
		}
		for _, p := range net {
			if p < 0 || int(p) >= len(h.vertexWeights) {
				return fmt.Errorf("net %d has out-of-range pin %d", n, p)
			}
		}
	}
	return nil
}
