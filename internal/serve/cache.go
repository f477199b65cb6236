package serve

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// EngineRevision names the simulator-semantics generation baked into
// every cache key. The engine is deterministic — a result is a pure
// function of (canonical spec, execution options, engine revision) —
// so a cached entry stays valid for exactly as long as the engine
// produces bit-identical results for the same spec. Bump this string in
// any PR that changes simulation results (new protocol behaviour,
// changed PRNG consumption, oracle output format), and every old entry
// misses instead of serving stale bytes.
const EngineRevision = "metro-pr9"

// Engine selects which execution paths a job runs under the oracle
// battery.
type Engine string

const (
	// EngineReference is the default battery: the compiled kernel stepped
	// inline (plus the parallel differential leg when the spec's wk
	// field asks for one). The name is wire format — it is hashed into
	// every cache key — and predates the kernel being the only engine.
	EngineReference Engine = "reference"
	// EngineKernel additionally re-runs the scenario on the
	// per-component reference stepper and demands bit-identity with the
	// compiled kernel — the serving-path version of `metrofuzz -kernel`.
	EngineKernel Engine = "kernel"
)

// Key returns the content address of a job: SHA-256 over the engine
// revision, the execution options, and the canonical spec line.
//
// The spec must be the *canonical* encoding — EncodeSpec of the decoded
// scenario — never the client's raw bytes: the mf1 grammar admits one
// scenario under many field orders, and the whole point of content
// addressing is that equal scenarios collide. Callers get canonicality
// for free by round-tripping through DecodeSpecStrict + EncodeSpec;
// FuzzCanonicalKey pins the invariant against the spec-codec corpus.
//
// The execution options are part of the address because they change the
// response body (EngineKernel adds the kernel oracle verdict, trace
// adds the mtr1 stream), not because they change simulation results —
// determinism guarantees they cannot.
func Key(canonicalSpec string, engine Engine, trace bool) string {
	h := sha256.New()
	h.Write([]byte(EngineRevision))
	h.Write([]byte{0})
	h.Write([]byte(engine))
	h.Write([]byte{0})
	if trace {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write([]byte{0})
	h.Write([]byte(canonicalSpec))
	return hex.EncodeToString(h.Sum(nil))
}

// CacheStats is a point-in-time snapshot of the cache counters.
type CacheStats struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Budget    int64  `json:"budget"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Cache is the content-addressed result store: canonical key → the
// exact response bytes served for that job, with LRU eviction against a
// byte budget. Entries are immutable once stored (they are marshaled
// results of deterministic runs), so a hit is served by writing the
// stored bytes verbatim — the e2e harness asserts hit and miss bodies
// are byte-identical.
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	lru       *list.List // front = most recently used
	index     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key  string
	body []byte
}

// NewCache builds a cache bounded to budget bytes of stored bodies
// (keys and bookkeeping ride free). A zero or negative budget still
// admits single entries one at a time — every Put evicts down to the
// budget *after* insertion, so the newest entry always lands.
func NewCache(budget int64) *Cache {
	return &Cache{
		budget: budget,
		lru:    list.New(),
		index:  make(map[string]*list.Element),
	}
}

// Get returns the stored body for key and promotes the entry to
// most-recently-used. The returned slice is the stored backing array:
// callers must treat it as read-only.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// Put stores body under key and evicts least-recently-used entries
// until the byte budget holds again. Re-putting an existing key
// replaces the body (the entry keys are content addresses, so the bytes
// can only differ if the caller broke the determinism contract — the
// replace keeps the cache self-consistent anyway).
func (c *Cache) Put(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		e := el.Value.(*cacheEntry)
		c.used += int64(len(body)) - int64(len(e.body))
		e.body = body
		c.lru.MoveToFront(el)
	} else {
		c.index[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
		c.used += int64(len(body))
	}
	for c.used > c.budget && c.lru.Len() > 1 {
		el := c.lru.Back()
		e := el.Value.(*cacheEntry)
		c.lru.Remove(el)
		delete(c.index, e.key)
		c.used -= int64(len(e.body))
		c.evictions++
	}
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.lru.Len(),
		Bytes:     c.used,
		Budget:    c.budget,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}
