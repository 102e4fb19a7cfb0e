package fleet

import (
	"container/list"
	"sync"
)

// Cache is the content-addressed result cache: canonical job key →
// the verbatim result bytes a replica produced for that spec. Because
// runs are bit-deterministic, a hit is indistinguishable from a fresh
// simulation — same bytes, no work — so the cache converts the
// determinism invariant directly into fleet throughput.
//
// It is a plain LRU bounded both by entry count and by total payload
// bytes; inserting an oversized value evicts from the cold end until it
// fits. All methods are safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used
	m          map[string]*list.Element

	bytes     int64
	hits      int64
	misses    int64
	evictions int64
}

type cacheEntry struct {
	key  string
	body []byte
}

// Default cache bounds: 4096 results / 64 MiB of payload.
const (
	DefaultCacheEntries = 4096
	DefaultCacheBytes   = 64 << 20
)

// NewCache builds a cache bounded by maxEntries results and maxBytes
// total payload (non-positive values select the defaults).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultCacheEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultCacheBytes
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		m:          make(map[string]*list.Element),
	}
}

// Get returns the cached result bytes for key and whether they exist,
// counting the hit or miss. The returned slice is shared — callers must
// not mutate it.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores the result bytes for key, evicting least-recently-used
// entries until both bounds hold. A body larger than the byte bound on
// its own is not cached at all. Re-putting an existing key refreshes
// its recency and replaces its body.
func (c *Cache) Put(key string, body []byte) {
	if int64(len(body)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		ent := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(ent.body))
		ent.body = body
		c.ll.MoveToFront(el)
	} else {
		c.m[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
		c.bytes += int64(len(body))
	}
	for (c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.ll.Len() > 1 {
		c.evictOldest()
	}
	// A single entry can still exceed maxBytes only transiently via the
	// replace path; the guard above keeps new inserts bounded.
	if c.bytes > c.maxBytes && c.ll.Len() == 1 {
		c.evictOldest()
	}
}

// evictOldest removes the cold-end entry. Caller holds c.mu.
func (c *Cache) evictOldest() {
	el := c.ll.Back()
	if el == nil {
		return
	}
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.m, ent.key)
	c.bytes -= int64(len(ent.body))
	c.evictions++
}

// CacheStats is the observable state of the cache.
type CacheStats struct {
	Entries   int   `json:"entries" prom:"cache_entries gauge Result-cache entries resident."`
	Bytes     int64 `json:"bytes" prom:"cache_bytes gauge Result-cache payload bytes resident."`
	Hits      int64 `json:"hits" prom:"cache_hits_total counter Result-cache lookups that hit."`
	Misses    int64 `json:"misses" prom:"cache_misses_total counter Result-cache lookups that missed."`
	Evictions int64 `json:"evictions" prom:"cache_evictions_total counter Result-cache entries evicted by the LRU bounds."`
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
