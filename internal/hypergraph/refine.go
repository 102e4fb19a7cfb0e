package hypergraph

// bisection holds the mutable state of a 2-way partition under refinement.
type bisection struct {
	h     *Hypergraph
	part  []int      // 0 or 1 per vertex
	partW [2]int64   // current side weights
	maxW  [2]int64   // balance caps
	pins  [][2]int32 // per net: pins on each side
}

func newBisection(h *Hypergraph, part []int, maxW [2]int64) *bisection {
	b := &bisection{h: h, part: part, maxW: maxW}
	b.pins = make([][2]int32, h.NumNets())
	for v, p := range part {
		b.partW[p] += h.VertexWeight(v)
	}
	for n := 0; n < h.NumNets(); n++ {
		for _, p := range h.Net(n) {
			b.pins[n][part[p]]++
		}
	}
	return b
}

// gain returns the cut reduction obtained by moving v to the other side.
func (b *bisection) gain(v int) int64 {
	from := b.part[v]
	to := 1 - from
	var g int64
	for _, ni := range b.h.Incidence(v) {
		n := int(ni)
		w := b.h.NetWeight(n)
		if b.pins[n][from] == 1 {
			g += w // net becomes uncut
		}
		if b.pins[n][to] == 0 {
			g -= w // net becomes cut
		}
	}
	return g
}

// move transfers v to the other side, updating side weights and pin counts.
func (b *bisection) move(v int) {
	from := b.part[v]
	to := 1 - from
	b.part[v] = to
	w := b.h.VertexWeight(v)
	b.partW[from] -= w
	b.partW[to] += w
	for _, ni := range b.h.Incidence(v) {
		b.pins[ni][from]--
		b.pins[ni][to]++
	}
}

func (b *bisection) cut() int64 {
	var c int64
	for n := 0; n < b.h.NumNets(); n++ {
		if b.pins[n][0] > 0 && b.pins[n][1] > 0 {
			c += b.h.NetWeight(n)
		}
	}
	return c
}

func (b *bisection) feasible() bool {
	return b.partW[0] <= b.maxW[0] && b.partW[1] <= b.maxW[1]
}

// rebalance greedily moves vertices out of an overweight side, choosing
// at each step the vertex whose move loses the least cut, until both
// sides respect their caps (or no move can help). Returns ops performed.
//
// The greedy choice can cycle between infeasible states (e.g. 242/258 ->
// 244/256 -> 258/242 -> 256/244 -> 242/258 under caps 255/255), so one
// call makes at most len(b.part) moves and then leaves the rest to FM.
func (b *bisection) rebalance() int64 {
	var ops int64
	for moves := 0; !b.feasible() && moves < len(b.part); moves++ {
		from := 0
		if b.partW[1] > b.maxW[1] {
			from = 1
		}
		to := 1 - from
		best, bestGain := -1, int64(-1<<62)
		for v := range b.part {
			if b.part[v] != from {
				continue
			}
			if b.partW[to]+b.h.VertexWeight(v) > b.maxW[to] && b.partW[from]-b.h.VertexWeight(v) >= b.partW[to] {
				// Moving would just swap which side is overweight
				// without making progress.
				continue
			}
			g := b.gain(v)
			ops += int64(len(b.h.Incidence(v)))
			if g > bestGain {
				best, bestGain = v, g
			}
		}
		if best < 0 {
			return ops
		}
		b.move(best)
		ops += int64(len(b.h.Incidence(best)))
	}
	return ops
}

// moveTracked is move plus the Fiduccia–Mattheyses delta-gain update of
// vs, which holds the true gain of every vertex. A net changes the
// gain of its other pins only when, before the move, its from-side count
// is 1 or 2 or its to-side count is 0 or 1; all other nets are skipped.
func (b *bisection) moveTracked(v int, vs []fmVertex) {
	from := b.part[v]
	to := 1 - from
	for _, ni := range b.h.Incidence(v) {
		pf, pt := b.pins[ni][from], b.pins[ni][to]
		if pf > 2 && pt > 1 {
			continue
		}
		w := b.h.NetWeight(int(ni))
		for _, u := range b.h.Net(int(ni)) {
			if int(u) == v {
				continue
			}
			if b.part[u] == from {
				// Moving u no longer cuts a net v already cut
				// (pt == 0), and u becomes the lone from pin whose
				// move uncuts it (pf == 2).
				if pt == 0 {
					vs[u].gain += w
				}
				if pf == 2 {
					vs[u].gain += w
				}
			} else {
				// u stops being the lone to pin whose move uncut the
				// net (pt == 1), and with v gone from the from side,
				// moving u there cuts the net (pf == 1).
				if pt == 1 {
					vs[u].gain -= w
				}
				if pf == 1 {
					vs[u].gain -= w
				}
			}
		}
	}
	vs[v].gain = -vs[v].gain
	b.move(v)
}

// gainEntry is a vertex and its heap key.
type gainEntry struct {
	key int64
	v   int32
}

// before orders entries best-gain-first, vertex index ascending on ties.
func (a gainEntry) before(o gainEntry) bool {
	if a.key != o.key {
		return a.key > o.key
	}
	return a.v < o.v
}

// gainHeap is an indexed 4-ary max-heap with at most one entry per
// vertex. Entries of distinct vertices never compare equal, so the pop
// order is independent of the heap shape. Keys update in place, unlike
// container/heap's boxed Push/Pop.
type gainHeap struct {
	a   []gainEntry
	pos []int32 // vertex -> index in a, or -1 when absent
}

func (h *gainHeap) reset(n int) {
	if cap(h.pos) < n {
		h.pos = make([]int32, n)
		h.a = make([]gainEntry, 0, n)
	}
	h.pos = h.pos[:n]
	h.a = h.a[:0]
	for v := range h.pos {
		h.pos[v] = -1
	}
}

func (h *gainHeap) len() int { return len(h.a) }

// set inserts v with key k, or moves it to key k if present.
func (h *gainHeap) set(v int32, k int64) {
	i := h.pos[v]
	if i < 0 {
		h.a = append(h.a, gainEntry{key: k, v: v})
		h.up(len(h.a) - 1)
		return
	}
	old := h.a[i].key
	h.a[i].key = k
	if k > old {
		h.up(int(i))
	} else if k < old {
		h.down(int(i))
	}
}

// pop removes and returns the first vertex.
func (h *gainHeap) pop() int32 {
	top := h.a[0].v
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a = h.a[:n]
	h.pos[top] = -1
	if n > 0 {
		h.down(0)
	}
	return top
}

func (h *gainHeap) up(i int) {
	e := h.a[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(h.a[p]) {
			break
		}
		h.a[i] = h.a[p]
		h.pos[h.a[i].v] = int32(i)
		i = p
	}
	h.a[i] = e
	h.pos[e.v] = int32(i)
}

func (h *gainHeap) down(i int) {
	e := h.a[i]
	n := len(h.a)
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := min(first+4, n)
		for c := first + 1; c < last; c++ {
			if h.a[c].before(h.a[best]) {
				best = c
			}
		}
		if !h.a[best].before(e) {
			break
		}
		h.a[i] = h.a[best]
		h.pos[h.a[i].v] = int32(i)
		i = best
	}
	h.a[i] = e
	h.pos[e.v] = int32(i)
}

// fmVertex is the per-pass state of one vertex, packed so a refresh
// touches one record.
type fmVertex struct {
	gain int64 // true gain
	deg  int32 // incidence length
	// state is -1 once locked, else the move count at the last refresh,
	// so a pin shared by several nets of the moved vertex is refreshed
	// once per move.
	state int32
}

// fmScratch is the state of fmPass, kept across the passes of one
// refinement.
type fmScratch struct {
	vs    []fmVertex
	moves []int32
	heap  gainHeap
}

// fmPass runs one Fiduccia–Mattheyses pass: vertices are tentatively moved
// in best-gain-first order under the balance caps, each at most once, and
// the best prefix of the move sequence is kept. Returns the cut
// improvement of the pass and the ops performed.
//
// A vertex's heap key is its gain at its last refresh: moving v refreshes
// the unlocked pins of v's nets of at most maxNetSizeForMatching pins, so
// a gain changed only through a larger net stays stale in the key while
// the applied gain is always the true one. A vertex popped against the
// balance cap leaves the heap until its next refresh. Ops counts every
// refresh of a pin as a gain recomputation, once per net it shares with
// v, which is the charged cost the scheduler's cost model expects.
func (b *bisection) fmPass(s *fmScratch) (improved int64, ops int64) {
	n := b.h.NumVertices()
	if cap(s.vs) < n {
		s.vs = make([]fmVertex, n)
	}
	vs := s.vs[:n]
	gh := &s.heap
	gh.reset(n)
	for v := range vs {
		vs[v] = fmVertex{gain: b.gain(v), deg: int32(len(b.h.Incidence(v)))}
		ops += int64(vs[v].deg)
		gh.set(int32(v), vs[v].gain)
	}

	moves := s.moves[:0]
	var cum, bestCum int64
	bestIdx := 0 // number of moves of the best prefix

	for gh.len() > 0 {
		v := int(gh.pop())
		to := 1 - b.part[v]
		if b.partW[to]+b.h.VertexWeight(v) > b.maxW[to] {
			continue // cannot move under balance; out until refreshed
		}
		g := vs[v].gain
		ops += int64(vs[v].deg)
		b.moveTracked(v, vs)
		vs[v].state = -1
		cum += g
		moves = append(moves, int32(v))
		if cum > bestCum {
			bestCum = cum
			bestIdx = len(moves)
		}
		// Refresh neighbors whose gain may have changed.
		epoch := int32(len(moves))
		for _, ni := range b.h.Incidence(v) {
			net := b.h.Net(int(ni))
			if len(net) > maxNetSizeForMatching {
				continue
			}
			for _, u := range net {
				x := &vs[u]
				if x.state < 0 {
					continue
				}
				ops += int64(x.deg)
				if x.state != epoch {
					x.state = epoch
					gh.set(u, x.gain)
				}
			}
		}
	}
	// Roll back moves beyond the best prefix.
	for i := len(moves) - 1; i >= bestIdx; i-- {
		b.move(int(moves[i]))
	}
	s.moves = moves
	return bestCum, ops
}

// refine runs FM passes until a pass yields no improvement, up to
// maxPasses, after an initial rebalance. Returns ops performed.
func (b *bisection) refine(maxPasses int) int64 {
	ops := b.rebalance()
	var s fmScratch
	for i := 0; i < maxPasses; i++ {
		improved, passOps := b.fmPass(&s)
		ops += passOps
		if improved <= 0 {
			break
		}
	}
	return ops
}
