package hypergraph

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// memoBytes bounds the entries of a memo. The 50 distinct partitions of
// a full paperbench sweep take 8.4 MB.
const memoBytes = 64 << 20

// Memo remembers partitions by content, so a sweep partitions each
// distinct (hypergraph, Config, clique) once. Partition's output depends
// on nothing else: Config.Seed is part of the key, and the partitioner
// reads no other state.
//
// The key is a SHA-256 of the vertex weights, the nets with their pins
// in order, the net weights, the defaulted Config (K included) and the
// clique flag. An entry stores a flat copy of its hypergraph, and a
// hash hit is served only if that copy equals the requested one, so a
// collision costs a recompute, never a wrong partition.
//
// Concurrent requests for one key compute it once; the others wait for
// that result (singleflight). Completed entries are evicted least
// recently used first once their bytes exceed the bound.
//
// A nil *Memo is valid and computes every request directly. Scope
// returns a handle that shares the entries but counts on its own, so
// concurrent sweeps over one memo each report their own work.
type Memo struct {
	store  *memoStore
	parent *Memo
	counts [numCounts]atomic.Int64
}

// Indices of Memo.counts.
const (
	requested = iota
	computed
	waited
	numCounts
)

// MemoCounts is the partition work of a memo or of one of its scopes.
// Requested minus Computed minus Waited requests were plain hits.
type MemoCounts struct {
	// Requested counts Partition calls.
	Requested int64 `json:"requested"`
	// Computed counts calls that ran the partitioner.
	Computed int64 `json:"computed"`
	// Waited counts calls that waited for another call's computation
	// of the same key.
	Waited int64 `json:"waited"`
}

// Add accumulates o into c.
func (c *MemoCounts) Add(o MemoCounts) {
	c.Requested += o.Requested
	c.Computed += o.Computed
	c.Waited += o.Waited
}

type memoKey [sha256.Size]byte

type memoStore struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64 // sizes of the completed entries in lru
	entries  map[memoKey]*memoEntry
	lru      list.List // completed entries, most recently used first
}

// memoEntry is one key. graph, cfg and clique are set before the entry
// is published and never change; part, stats and err are written once,
// before done is closed.
type memoEntry struct {
	key    memoKey
	graph  flatGraph
	cfg    Config
	clique bool
	done   chan struct{}
	part   []int
	stats  Stats
	err    error
	size   int64
	elem   *list.Element
}

// flatGraph is a compact copy of a hypergraph: net n has the pins
// pins[off[n]:off[n+1]].
type flatGraph struct {
	vw   []int64
	off  []int32
	pins []int32
	nw   []int64
}

// NewMemo returns an empty memo holding at most 64 MB of entries.
func NewMemo() *Memo {
	return &Memo{store: &memoStore{maxBytes: memoBytes, entries: make(map[memoKey]*memoEntry)}}
}

// Scope returns a handle on the same entries whose counts start at zero.
// Its requests are also counted by m.
func (m *Memo) Scope() *Memo {
	return &Memo{store: m.store, parent: m}
}

// Counts returns the work counted by this handle and its scopes.
func (m *Memo) Counts() MemoCounts {
	return MemoCounts{Requested: m.counts[requested].Load(),
		Computed: m.counts[computed].Load(), Waited: m.counts[waited].Load()}
}

// count adds one to counter i of m and of every handle m was scoped from.
func (m *Memo) count(i int) {
	for ; m != nil; m = m.parent {
		m.counts[i].Add(1)
	}
}

// Partition returns the partition of h that Partition(h, cfg) computes,
// or PartitionClique(h, cfg) when clique is set, together with that
// call's Stats. The returned slice is the caller's to keep and modify.
// h must not change during the call.
func (m *Memo) Partition(h *Hypergraph, cfg Config, clique bool) ([]int, Stats, error) {
	if m == nil {
		return partition(h, cfg, clique)
	}
	m.count(requested)
	cfg = cfg.withDefaults()
	key := memoHash(h, cfg, clique)
	s := m.store
	s.mu.Lock()
	e, ok := s.entries[key]
	if ok && !e.matches(h, cfg, clique) {
		// A hash collision: compute without touching the entry.
		s.mu.Unlock()
		m.count(computed)
		return partition(h, cfg, clique)
	}
	if ok {
		select {
		case <-e.done:
			if e.elem != nil {
				s.lru.MoveToFront(e.elem)
			}
			s.mu.Unlock()
		default:
			s.mu.Unlock()
			m.count(waited)
			<-e.done
		}
		return e.result()
	}
	e = &memoEntry{key: key, graph: flatten(h), cfg: cfg, clique: clique, done: make(chan struct{})}
	s.entries[key] = e
	s.mu.Unlock()
	m.count(computed)
	s.compute(e, h)
	return e.result()
}

// result returns a completed entry's outcome, with a private copy of
// the partition.
func (e *memoEntry) result() ([]int, Stats, error) {
	if e.err != nil {
		return nil, Stats{}, e.err
	}
	return slices.Clone(e.part), e.stats, nil
}

// compute runs the partitioner for a freshly published entry and
// completes it. A failed or panicking computation releases its waiters
// with the error and leaves no entry behind.
func (s *memoStore) compute(e *memoEntry, h *Hypergraph) {
	finished := false
	defer func() {
		if !finished { // the partitioner panicked; the panic goes on
			e.err = errors.New("hypergraph: partition panicked")
			s.complete(e)
		}
	}()
	e.part, e.stats, e.err = partition(h, e.cfg, e.clique)
	finished = true
	s.complete(e)
}

// complete publishes e's result: a successful entry joins the LRU list
// (evicting the least recently used ones beyond the byte bound), a
// failed one is dropped. Either way its waiters are released.
func (s *memoStore) complete(e *memoEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer close(e.done)
	if e.err != nil {
		delete(s.entries, e.key)
		return
	}
	e.size = e.bytes()
	e.elem = s.lru.PushFront(e)
	s.bytes += e.size
	for s.bytes > s.maxBytes {
		old := s.lru.Remove(s.lru.Back()).(*memoEntry)
		s.bytes -= old.size
		old.elem = nil
		delete(s.entries, old.key)
	}
}

func partition(h *Hypergraph, cfg Config, clique bool) ([]int, Stats, error) {
	if clique {
		return PartitionClique(h, cfg)
	}
	return Partition(h, cfg)
}

// bytes approximates the heap an entry holds.
func (e *memoEntry) bytes() int64 {
	g := &e.graph
	return int64(8*len(g.vw)+4*len(g.off)+4*len(g.pins)+8*len(g.nw)+8*len(e.part)) + 256
}

// matches reports whether the entry was computed for exactly this
// request.
func (e *memoEntry) matches(h *Hypergraph, cfg Config, clique bool) bool {
	g := &e.graph
	if e.cfg != cfg || e.clique != clique ||
		!slices.Equal(g.vw, h.vertexWeights) || !slices.Equal(g.nw, h.netWeights) ||
		len(g.off) != len(h.nets)+1 {
		return false
	}
	for n, net := range h.nets {
		if !slices.Equal(g.pins[g.off[n]:g.off[n+1]], net) {
			return false
		}
	}
	return true
}

func flatten(h *Hypergraph) flatGraph {
	g := flatGraph{
		vw:   slices.Clone(h.vertexWeights),
		off:  make([]int32, 0, len(h.nets)+1),
		pins: make([]int32, 0, h.pins),
		nw:   slices.Clone(h.netWeights),
	}
	g.off = append(g.off, 0)
	for _, net := range h.nets {
		g.pins = append(g.pins, net...)
		g.off = append(g.off, int32(len(g.pins)))
	}
	return g
}

// memoHash keys a request. Tests replace it to force collisions.
var memoHash = contentHash

// contentHash is the SHA-256 of a length-prefixed encoding of the
// request, so distinct requests have distinct encodings.
func contentHash(h *Hypergraph, cfg Config, clique bool) memoKey {
	d := sha256.New()
	buf := make([]byte, 0, 4096)
	put := func(v uint64) {
		if len(buf)+8 > cap(buf) {
			d.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	put(uint64(cfg.K))
	put(math.Float64bits(cfg.UBFactor))
	put(uint64(cfg.Seed))
	put(uint64(cfg.Nruns))
	put(uint64(cfg.VCycles))
	put(uint64(cfg.MinCoarse))
	put(uint64(cfg.MaxPasses))
	if clique {
		put(1)
	} else {
		put(0)
	}
	put(uint64(len(h.vertexWeights)))
	for _, w := range h.vertexWeights {
		put(uint64(w))
	}
	put(uint64(len(h.nets)))
	for n, net := range h.nets {
		put(uint64(h.netWeights[n]))
		put(uint64(len(net)))
		for _, p := range net {
			put(uint64(p))
		}
	}
	d.Write(buf)
	var k memoKey
	d.Sum(k[:0])
	return k
}
