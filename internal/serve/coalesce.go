package serve

import (
	"context"
	"strings"
	"sync"
)

// coalesceKey identifies one coalescable unit of read work: the same
// route, against the same instance at the same mutation generation, for
// the same normalized query text at the same refinement level. The
// generation is part of the key, which is what makes whole-request
// coalescing safe under concurrent mutation: requests that observed
// different generations never share an evaluation, and a shared response
// is always stamped with exactly the generation it was evaluated on.
type coalesceKey struct {
	route    string
	instance string
	gen      uint64
	refine   int
	query    string
}

// flight is one in-progress evaluation; joiners wait on done and share
// val/err.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// coalescer is a request-level singleflight: the artifact cache already
// collapses concurrent builds of the same derived structure, and this
// extends the same idea one layer up, to whole request evaluations.
type coalescer struct {
	mu      sync.Mutex
	flights map[coalesceKey]*flight
}

func newCoalescer() *coalescer {
	return &coalescer{flights: make(map[coalesceKey]*flight)}
}

// do returns fn's result for key, computing it at most once across
// concurrent callers. The second return is true when this caller joined
// another request's in-flight evaluation (a coalesce hit). Joiners wait
// ctx-aware: a joiner whose own deadline fires gives up with ctx.Err()
// while the leader's evaluation continues for the remaining waiters.
// Completed flights are not cached — the per-generation artifact cache
// below already makes repeat evaluation warm — so coalescing only ever
// shares work, never staleness.
func (c *coalescer) do(ctx context.Context, key coalesceKey, fn func() (any, error)) (any, error, bool) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, f.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.flights, key)
		c.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn()
	return f.val, f.err, false
}

// normalizeQuery canonicalizes query text for coalescing: whitespace runs
// collapse to single spaces, so trivially reformatted but identical
// queries share one evaluation.
func normalizeQuery(src string) string {
	return strings.Join(strings.Fields(src), " ")
}
