package service

import (
	"container/list"
	"context"
	"encoding/binary"
	"errors"
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

// DefaultCacheSize bounds the prediction cache when ServeOptions leaves
// CacheSize zero.
const DefaultCacheSize = 4096

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
	cap int
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

// newPredCache builds a cache bounded to capacity entries (min 1).
func newPredCache(capacity int) *predCache {
	if capacity < 1 {
		capacity = 1
	}
	return &predCache{cap: capacity, ll: list.New(), byK: map[string]*list.Element{}}
}

// newBrownCache builds a metric-silent cache for brownout predictions
// (keyed with predKey(app, m, 0) — epoch-less, see Server.brown).
func newBrownCache(capacity int) *predCache {
	c := newPredCache(capacity)
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
	for c.ll.Len() > c.cap {
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

// estimate serves one prediction through the cache: a hit returns the
// cached estimate, a miss evaluates and fills; hit reports which happened
// (feeding the decision record's cache outcome). The caller supplies the
// view so the epoch in the key matches the snapshot being evaluated
// against, and a context whose active span parents the lookup/evaluation
// spans. With the cache disabled (nil) every call is a miss.
//
// admit puts admission control on the compute path (DESIGN.md §15): a hit
// is served without touching the limiter — the cached answer IS the full
// answer, so the cheap class degenerates to free — while a miss must win
// an expensive-class slot before evaluating. shed=true (with no estimate
// and no error) reports that the limiter refused the compute; the caller
// falls back to the brownout path. Callers that already hold a slot for
// the whole request (Compare, Schedule) pass admit=false.
func (s *Server) estimate(ctx context.Context, v *view, app string, eval *core.Evaluator, m core.Mapping, admit bool) (est core.Estimate, hit, shed bool, err error) {
	span, ctx := obs.StartSpan(ctx, "cache.lookup")
	key := ""
	if s.cache != nil {
		key = predKey(app, m, v.epoch)
		if est, hit = s.cache.get(key); hit {
			span.Attr("hit", true).End()
			return est, true, false, nil
		}
	}
	span.Attr("hit", false)
	if admit && s.lim != nil {
		tk, aerr := s.lim.Acquire(ctx, admission.Expensive)
		if aerr != nil {
			span.Attr("shed", true).End()
			if errors.Is(aerr, admission.ErrShed) {
				return core.Estimate{}, false, true, nil
			}
			return core.Estimate{}, false, false, aerr
		}
		defer s.lim.Release(tk)
	}
	pspan, _ := obs.StartSpan(ctx, "core.predict")
	est, err = eval.Estimate(m, v.snap)
	if err != nil {
		pspan.Error(err).End()
		span.Error(err).End()
		return core.Estimate{}, false, false, err
	}
	pspan.End()
	if s.cache != nil {
		s.cache.put(key, est)
	}
	span.End()
	return est, false, false, nil
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
	pred, err := eval.PredictBrownout(m)
	if err != nil {
		return core.Estimate{}, err
	}
	est := core.Estimate{Seconds: pred.Seconds, Critical: -1, Brownout: true}
	s.brown.put(key, est)
	return est, nil
}
