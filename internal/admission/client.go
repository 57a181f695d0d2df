package admission

import "sync"

// RetryBudget is a token bucket bounding the *extra* load retries add:
// each retry spends one token, each success earns Ratio tokens. During
// an overload successes dry up, the bucket drains, and retries stop —
// the client degrades to one attempt per call instead of multiplying
// the offered load by its retry limit. A nil *RetryBudget always
// allows (retries bounded only by RetryPolicy.Max).
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	max    float64
	ratio  float64
}

// NewRetryBudget builds a budget earning ratio tokens per success
// (default 0.1 when ratio <= 0 — one retry per ten successes), capped
// at 10 tokens and starting full so cold clients can still retry.
func NewRetryBudget(ratio float64) *RetryBudget {
	if ratio <= 0 {
		ratio = 0.1
	}
	const max = 10
	return &RetryBudget{tokens: max, max: max, ratio: ratio}
}

// Allow spends one token if available, reporting whether the retry may
// proceed.
func (b *RetryBudget) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Earn credits the success ratio back into the bucket.
func (b *RetryBudget) Earn() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.max {
		b.tokens = b.max
	}
	b.mu.Unlock()
}
