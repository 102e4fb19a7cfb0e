package hypergraph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomHypergraph builds a random hypergraph of n vertices and 2n nets
// of 2..5 pins with weights 1..3.
func randomHypergraph(n int, seed int64) *Hypergraph {
	rng := rand.New(rand.NewSource(seed))
	h := New(n)
	for i := 0; i < 2*n; i++ {
		pins := make([]int32, 2+rng.Intn(4))
		for j := range pins {
			pins[j] = int32(rng.Intn(n))
		}
		h.AddNet(int64(1+rng.Intn(3)), pins...)
	}
	return h
}

// memoCall is one memo request.
type memoCall struct {
	h      *Hypergraph
	cfg    Config
	clique bool
}

func (c memoCall) direct(t *testing.T) ([]int, Stats) {
	t.Helper()
	part, stats, err := partition(c.h, c.cfg, c.clique)
	if err != nil {
		t.Fatal(err)
	}
	return part, stats
}

// check asks m for c and requires the direct result.
func (c memoCall) check(t *testing.T, m *Memo) {
	t.Helper()
	wantPart, wantStats := c.direct(t)
	part, stats, err := m.Partition(c.h, c.cfg, c.clique)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(part, wantPart) || stats != wantStats {
		t.Fatalf("memo returned %v %+v, direct %v %+v", part, stats, wantPart, wantStats)
	}
}

func wantCounts(t *testing.T, m *Memo, want MemoCounts) {
	t.Helper()
	if got := m.Counts(); got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
}

func TestMemoHitReturnsComputedResult(t *testing.T) {
	m := NewMemo()
	c := memoCall{h: randomHypergraph(60, 1), cfg: Config{K: 4}}
	c.check(t, m)
	c.check(t, m)
	// The same request rebuilt from scratch, with the defaults spelled
	// out, is the same key.
	c2 := memoCall{h: randomHypergraph(60, 1), cfg: Config{K: 4}.withDefaults()}
	c2.check(t, m)
	wantCounts(t, m, MemoCounts{Requested: 3, Computed: 1})
}

func TestMemoNilComputesDirectly(t *testing.T) {
	var m *Memo
	memoCall{h: randomHypergraph(60, 2), cfg: Config{K: 2}}.check(t, m)
	memoCall{h: randomHypergraph(60, 2), cfg: Config{K: 2}, clique: true}.check(t, m)
}

func TestMemoKeyCoversEveryInput(t *testing.T) {
	base := memoCall{h: randomHypergraph(50, 3), cfg: Config{K: 2}}
	heavier := randomHypergraph(50, 3)
	heavier.netWeights[7]++
	changed := map[string]memoCall{
		"K":          {h: base.h, cfg: Config{K: 3}},
		"clique":     {h: base.h, cfg: base.cfg, clique: true},
		"Config":     {h: base.h, cfg: Config{K: 2, Nruns: 5}},
		"seed":       {h: base.h, cfg: Config{K: 2, Seed: 1}},
		"net weight": {h: heavier, cfg: base.cfg},
	}
	for name, c := range changed {
		t.Run(name, func(t *testing.T) {
			m := NewMemo()
			base.check(t, m)
			c.check(t, m)
			wantCounts(t, m, MemoCounts{Requested: 2, Computed: 2})
			base.check(t, m)
			c.check(t, m)
			wantCounts(t, m, MemoCounts{Requested: 4, Computed: 2})
		})
	}
}

func TestMemoHashCollisionRecomputes(t *testing.T) {
	defer func(h func(*Hypergraph, Config, bool) memoKey) { memoHash = h }(memoHash)
	memoHash = func(*Hypergraph, Config, bool) memoKey { return memoKey{} }
	m := NewMemo()
	a := memoCall{h: randomHypergraph(40, 4), cfg: Config{K: 2}}
	b := memoCall{h: randomHypergraph(40, 5), cfg: Config{K: 2}}
	a.check(t, m)
	b.check(t, m) // same key, different hypergraph: computed, not served
	wantCounts(t, m, MemoCounts{Requested: 2, Computed: 2})
	a.check(t, m) // the first entry is untouched
	wantCounts(t, m, MemoCounts{Requested: 3, Computed: 2})
	// Equal hypergraphs under another Config collide too.
	memoCall{h: a.h, cfg: Config{K: 3}}.check(t, m)
	wantCounts(t, m, MemoCounts{Requested: 4, Computed: 3})
}

func TestMemoResultIsPrivate(t *testing.T) {
	m := NewMemo()
	c := memoCall{h: randomHypergraph(50, 6), cfg: Config{K: 3}}
	for i := 0; i < 2; i++ { // the computing and the hitting caller
		part, _, err := m.Partition(c.h, c.cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		for v := range part {
			part[v] = -1
		}
	}
	c.check(t, m)
}

func TestMemoSingleflight(t *testing.T) {
	const callers = 8
	m := NewMemo()
	c := memoCall{h: randomHypergraph(200, 7), cfg: Config{K: 4}}
	want, _ := c.direct(t)
	start := make(chan struct{})
	parts := make([][]int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			// Each caller builds its own copy, as sweep cells do.
			part, _, err := m.Partition(randomHypergraph(200, 7), c.cfg, false)
			if err != nil {
				t.Error(err)
			}
			parts[i] = part
		}(i)
	}
	close(start)
	wg.Wait()
	for i, p := range parts {
		if !slices.Equal(p, want) {
			t.Fatalf("caller %d got a different partition", i)
		}
	}
	got := m.Counts()
	if got.Requested != callers || got.Computed != 1 {
		t.Fatalf("counts %+v: want %d requested, 1 computed", got, callers)
	}
	t.Logf("%d of %d callers waited", got.Waited, callers-1)
}

func TestMemoEvictsLeastRecentlyUsedBeyondBound(t *testing.T) {
	calls := make([]memoCall, 3)
	for i := range calls {
		calls[i] = memoCall{h: randomHypergraph(50, int64(10+i)), cfg: Config{K: 2}}
	}
	// Room for two entries of this size, not three.
	one := (&memoEntry{graph: flatten(calls[0].h), part: make([]int, 50)}).bytes()
	m := NewMemo()
	m.store.maxBytes = 2*one + one/2
	calls[0].check(t, m)
	calls[1].check(t, m)
	calls[0].check(t, m) // 0 is now more recent than 1
	calls[2].check(t, m) // evicts 1
	wantCounts(t, m, MemoCounts{Requested: 4, Computed: 3})
	if b := m.store.bytes; b > m.store.maxBytes {
		t.Fatalf("%d bytes held, bound %d", b, m.store.maxBytes)
	}
	calls[0].check(t, m)
	calls[2].check(t, m)
	wantCounts(t, m, MemoCounts{Requested: 6, Computed: 3})
	calls[1].check(t, m)
	wantCounts(t, m, MemoCounts{Requested: 7, Computed: 4})

	// An entry larger than the whole bound is served but not kept.
	tiny := NewMemo()
	tiny.store.maxBytes = 1
	calls[0].check(t, tiny)
	calls[0].check(t, tiny)
	wantCounts(t, tiny, MemoCounts{Requested: 2, Computed: 2})
	if len(tiny.store.entries) != 0 || tiny.store.bytes != 0 {
		t.Fatalf("oversized entry kept: %d entries, %d bytes", len(tiny.store.entries), tiny.store.bytes)
	}
}

func TestMemoErrorsAreNotKept(t *testing.T) {
	m := NewMemo()
	h := randomHypergraph(20, 8)
	for i := 0; i < 2; i++ {
		if _, _, err := m.Partition(h, Config{K: 0}, false); err == nil {
			t.Fatal("K=0 partitioned")
		}
	}
	wantCounts(t, m, MemoCounts{Requested: 2, Computed: 2})
	if len(m.store.entries) != 0 {
		t.Fatalf("%d entries kept after errors", len(m.store.entries))
	}
}

func TestMemoScopesCountApart(t *testing.T) {
	root := NewMemo()
	a, b := root.Scope(), root.Scope()
	c := memoCall{h: randomHypergraph(60, 9), cfg: Config{K: 2}}
	c.check(t, a)
	c.check(t, b)
	c.check(t, b)
	wantCounts(t, a, MemoCounts{Requested: 1, Computed: 1})
	wantCounts(t, b, MemoCounts{Requested: 2})
	wantCounts(t, root, MemoCounts{Requested: 3, Computed: 1})
}
