package serve

import (
	"context"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
)

// Decision cache (DESIGN.md §13). Fleet clusters poll the daemon with
// queue states that change far more slowly than they poll: between
// arrivals and completions a cluster posts the same queue again and again,
// and /place re-scores the same (queue, job) pair against every shard
// engine. Decisions are pure functions of (engine, state) — the engines
// are stateless by the Engine contract — so identical keys can skip the
// forward pass entirely.
//
// The key is an exact binary encoding of everything a decision depends
// on: a generation counter (bumped on every /reload, so a swapped engine
// can never serve another engine's answers), the shard the engine belongs
// to (-1 for the base engine), and the full queue state — clock, view,
// queue length, score request, and every visible job's wire-settable
// fields. Exact matching means a cache hit returns byte-for-byte the
// decision the engine would have produced; there is no approximation to
// tune and nothing to invalidate beyond the generation bump.

// cacheEntry is one cached answer: the decision plus the policy name that
// produced it (surfaced in the response of an all-hit request).
type cacheEntry struct {
	dec    Decision
	policy string
}

// decisionCache is a bounded exact-match cache in front of the engines.
// Eviction is FIFO over a fixed ring of keys: the cache is a recency
// window, not an LRU — the workload (clusters re-posting their current
// queue) re-inserts hot keys naturally, and FIFO keeps the lock hold
// times flat.
type decisionCache struct {
	capacity int
	gen      atomic.Uint64
	metrics  *Metrics

	mu      sync.Mutex
	entries map[string]cacheEntry
	ring    []string
	head    int
}

func newDecisionCache(capacity int, m *Metrics) *decisionCache {
	return &decisionCache{
		capacity: capacity,
		metrics:  m,
		entries:  make(map[string]cacheEntry, capacity),
		ring:     make([]string, 0, capacity),
	}
}

// invalidate makes every cached decision unreachable by bumping the key
// generation. Stale entries are not swept eagerly; the FIFO ring retires
// them as new keys arrive.
func (c *decisionCache) invalidate() { c.gen.Add(1) }

// generation is the key generation to probe and put under (0 for a nil
// cache). A caller must read it BEFORE it loads the engine that will answer
// a miss: /reload swaps the engine and then invalidates, so a generation
// read first can only ever be too old — the answer lands under a dead key —
// never pair the old engine's answer with the new generation.
func (c *decisionCache) generation() uint64 {
	if c == nil {
		return 0
	}
	return c.gen.Load()
}

// appendCacheKey encodes one queue state's cache identity onto buf. tag is
// the shard index the serving engine belongs to (-1 for the base engine),
// keeping per-shard engines in disjoint key spaces within a generation.
func appendCacheKey(buf []byte, gen uint64, tag int, st *QueueState) []byte {
	buf = binary.AppendUvarint(buf, gen)
	buf = binary.AppendVarint(buf, int64(tag))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(st.Now))
	buf = binary.AppendVarint(buf, int64(st.View.FreeProcs))
	buf = binary.AppendVarint(buf, int64(st.View.TotalProcs))
	buf = binary.AppendVarint(buf, int64(st.QueueLen))
	if st.WantScores {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.AppendUvarint(buf, uint64(len(st.Jobs)))
	for _, j := range st.Jobs {
		buf = binary.AppendVarint(buf, int64(j.ID))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(j.SubmitTime))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(j.RequestedTime))
		buf = binary.AppendVarint(buf, int64(j.RequestedProcs))
		buf = binary.AppendVarint(buf, int64(j.UserID))
	}
	return buf
}

// probe encodes st's key under generation gen into *buf (reused across
// calls) and looks it up — the one cache read of /v1/decide and the /place
// engine scorer. A nil cache (disabled) never hits and returns an empty
// key, which put ignores.
func (c *decisionCache) probe(buf *[]byte, gen uint64, tag int, st *QueueState) (key string, e cacheEntry, hit bool) {
	if c == nil {
		return "", cacheEntry{}, false
	}
	*buf = appendCacheKey((*buf)[:0], gen, tag, st)
	key = string(*buf)
	e, hit = c.get(key)
	return key, e, hit
}

// get returns the cached answer for key, counting the hit or miss.
func (c *decisionCache) get(key string) (cacheEntry, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if ok {
		c.metrics.CacheHits.Add(1)
	} else {
		c.metrics.CacheMisses.Add(1)
	}
	return e, ok
}

// put stores one answer, evicting the oldest inserted key at capacity.
// The cached Decision (including its Scores slice) is shared by every
// future hit; engines return fresh slices and readers never mutate them.
func (c *decisionCache) put(key string, e cacheEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		c.entries[key] = e
		return
	}
	if len(c.ring) == c.capacity {
		delete(c.entries, c.ring[c.head])
		c.ring[c.head] = key
		c.head = (c.head + 1) % c.capacity
	} else {
		c.ring = append(c.ring, key)
	}
	c.entries[key] = e
}

// decideCached is batcher.Decide behind the decision cache: cached states
// are answered without an engine call, misses go to the engine in one
// sub-batch and are stored on the way out. With the cache disabled this
// IS batcher.Decide — the serve path stays byte-identical. tag is the
// batcher's shard index (-1 for the base engine).
func (s *Server) decideCached(ctx context.Context, batcher *Batcher, tag int, states []*QueueState) ([]Decision, string, error) {
	if s.cache == nil {
		return batcher.Decide(ctx, states)
	}
	keys := make([]string, len(states))
	decs := make([]Decision, len(states))
	var missIdx []int
	var keyBuf []byte
	var hitPolicy string
	gen := s.cache.generation() // before Decide loads the engine
	for i, st := range states {
		key, e, hit := s.cache.probe(&keyBuf, gen, tag, st)
		keys[i] = key
		if hit {
			decs[i], hitPolicy = e.dec, e.policy
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) == 0 {
		// Name the policy stored with the picks: the engine's name now
		// would be the new engine's after a /reload since the probe.
		return decs, hitPolicy, nil
	}
	missStates := make([]*QueueState, len(missIdx))
	for k, i := range missIdx {
		missStates[k] = states[i]
	}
	missDecs, policy, err := batcher.Decide(ctx, missStates)
	if err != nil {
		return nil, policy, err
	}
	for k, i := range missIdx {
		decs[i] = missDecs[k]
		s.cache.put(keys[i], cacheEntry{dec: missDecs[k], policy: policy})
	}
	return decs, policy, nil
}
