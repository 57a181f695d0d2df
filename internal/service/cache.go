package service

import (
	"container/list"
	"context"
	"encoding/binary"
	"sync"

	"cbes/internal/admission"
	"cbes/internal/core"
	"cbes/internal/obs"
)

// Prediction-cache observability. Hit rate = hits / (hits + misses); the
// entries gauge tracks live (current plus not-yet-evicted stale) entries.
var (
	cacheHits = obs.Default().Counter(
		"cbes_predcache_hits_total", "Prediction-cache hits on the RPC read path.")
	cacheMisses = obs.Default().Counter(
		"cbes_predcache_misses_total", "Prediction-cache misses (full evaluation performed).")
	cacheEvictions = obs.Default().Counter(
		"cbes_predcache_evictions_total", "Prediction-cache entries evicted by LRU capacity.")
	cacheEntries = obs.Default().Gauge(
		"cbes_predcache_entries", "Prediction-cache entries currently resident.")
)

// cacheSize bounds the prediction cache and the brownout cache.
const cacheSize = 4096

// predCache is a bounded LRU cache of core.Estimate — what a reply reads
// of a prediction, not its per-process breakdown — keyed by (application,
// mapping signature, snapshot epoch). The epoch inside the key is the
// invalidation mechanism: any state transition bumps the monitor epoch,
// so stale entries become unreachable instantly — they can never be
// returned for a newer epoch — and are recycled by LRU pressure rather
// than swept. An estimate's StaleNodes backing array is shared read-only
// across requests; callers must copy it before handing it on.
type predCache struct {
	mu  sync.Mutex
	ll  *list.List // front = most recently used; values are *cacheEntry
	byK map[string]*list.Element
	// silent suppresses the cache metrics — the brownout cache shares
	// this implementation but must not pollute the epoch cache's
	// hit-rate and occupancy series.
	silent bool
}

type cacheEntry struct {
	key string
	est core.Estimate
}

// newPredCache builds an empty cache bounded to cacheSize entries.
func newPredCache() *predCache {
	return &predCache{ll: list.New(), byK: map[string]*list.Element{}}
}

// newBrownCache builds a metric-silent cache for brownout predictions
// (keyed with predKey(app, m, 0) — epoch-less, see Server.brown).
func newBrownCache() *predCache {
	c := newPredCache()
	c.silent = true
	return c
}

// get returns the cached estimate for key, refreshing its recency.
func (c *predCache) get(key string) (core.Estimate, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		if !c.silent {
			cacheMisses.Inc()
		}
		return core.Estimate{}, false
	}
	c.ll.MoveToFront(el)
	if !c.silent {
		cacheHits.Inc()
	}
	return el.Value.(*cacheEntry).est, true
}

// put inserts (or refreshes) an estimate, evicting the LRU tail past
// capacity.
func (c *predCache) put(key string, est core.Estimate) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		el.Value.(*cacheEntry).est = est
		c.ll.MoveToFront(el)
		return
	}
	c.byK[key] = c.ll.PushFront(&cacheEntry{key: key, est: est})
	for c.ll.Len() > cacheSize {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.byK, tail.Value.(*cacheEntry).key)
		if !c.silent {
			cacheEvictions.Inc()
		}
	}
	if !c.silent {
		cacheEntries.Set(float64(c.ll.Len()))
	}
}

// len reports the resident entry count.
func (c *predCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// predKey builds the cache key for (app, mapping, epoch). The mapping is
// varint-packed rather than formatted: keys are built on every read-path
// request and must stay cheap.
func predKey(app string, mapping []int, epoch uint64) string {
	buf := make([]byte, 0, len(app)+1+10*(len(mapping)+1))
	buf = append(buf, app...)
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, epoch)
	for _, n := range mapping {
		buf = binary.AppendVarint(buf, int64(n))
	}
	return string(buf)
}

// lookup is the read path's one probe of the epoch cache: it looks
// mapping m up under a cache.lookup span and books exactly one hit or
// miss, returning the key a miss is filled at. The caller supplies the
// view, so the epoch in the key matches the snapshot a miss is evaluated
// against.
func (s *Server) lookup(ctx context.Context, v *view, app string, m []int) (est core.Estimate, key string, hit bool) {
	span, _ := obs.StartSpan(ctx, "cache.lookup")
	key = predKey(app, m, v.epoch)
	est, hit = s.cache.get(key)
	span.Attr("hit", hit).End()
	return est, key, hit
}

// compute evaluates a mapping the cache missed under a core.predict span
// and fills the cache at key. The caller holds the admission slot the
// compute needs.
func (s *Server) compute(ctx context.Context, v *view, eval *core.Evaluator, m []int, key string) (core.Estimate, error) {
	span, _ := obs.StartSpan(ctx, "core.predict")
	est, err := eval.Estimate(core.Mapping(m), v.snap)
	span.Error(err).End()
	if err != nil {
		return core.Estimate{}, err
	}
	s.cache.put(key, est)
	return est, nil
}

// brownoutEstimate serves one profile-only brownout prediction through
// the metric-silent brownout cache. The key is epoch-less: brownout
// answers depend only on profile + topology, so repeats are free for the
// process lifetime — that cacheability is what lets a saturated server
// keep answering at all. A cache miss computes under a cheap-class
// admission slot (the serial brownout lane); when even that lane is busy
// the request finally sheds with ErrShed.
func (s *Server) brownoutEstimate(ctx context.Context, eval *core.Evaluator, app string, m core.Mapping) (core.Estimate, error) {
	key := predKey(app, m, 0)
	if est, ok := s.brown.get(key); ok {
		return est, nil
	}
	tk, aerr := s.lim.Acquire(ctx, admission.Cheap)
	if aerr != nil {
		return core.Estimate{}, aerr
	}
	defer s.lim.Release(tk)
	est, err := eval.PredictBrownout(m)
	if err != nil {
		return core.Estimate{}, err
	}
	s.brown.put(key, est)
	return est, nil
}
