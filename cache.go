package topodb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"topodb/internal/arrange"
	"topodb/internal/folang"
	"topodb/internal/fourint"
	"topodb/internal/geom"
	"topodb/internal/invariant"
	"topodb/internal/par"
	"topodb/internal/reldb"
	"topodb/internal/spatial"
	"topodb/internal/thematic"
)

// artifactKind enumerates the derived artifacts a generation memoizes. The
// artifacts form a derivation chain — arrangement → invariant → thematic,
// arrangement → universe(0), (arrangement, boxes) → relations — so one
// arrangement build feeds every consumer.
type artifactKind int8

const (
	arrangementKind artifactKind = iota
	universeKind
	invariantKind
	sinvariantKind
	thematicKind
	relationsKind
	boxesKind
	shardedKind // the composed *arrange.Sharded artifact
	shardKind   // one shard's sub-arrangement; k is the shard id
)

// artifactKey identifies one cache slot; k is the refinement level for
// universeKind and the shard id for shardKind, 0 elsewhere.
type artifactKey struct {
	kind artifactKind
	k    int
}

// cacheEntry is a single-flight slot: the first requester computes, every
// concurrent requester waits on done and shares the result.
type cacheEntry struct {
	done chan struct{} // closed once val and err are set
	val  any
	err  error
}

// genCache holds the frozen state of one mutation generation: a
// deep-enough clone of the spatial instance plus the memoized derived
// artifacts computed from it. The clone never mutates, so every build and
// every read against a genCache runs without the Instance lock — long
// evaluations on a snapshot cannot contend with Add* writers. A genCache
// outlives the instance's interest in it for exactly as long as some
// Snapshot still references it; then the GC collects generation and
// artifacts together.
//
// A generation reached from its predecessor by a pure extension (an
// Apply/Add* batch that only added regions) carries a link to the parent
// generation's cache and the added names: its arrangement is then derived
// by arrange.Insert from the parent's, and its relation table recomputes
// only the pairs touching the added regions (see buildArrangement and
// relations). The chain is cut at depth one — linking a new generation
// drops the parent's own parent — so at most two generations are ever
// retained by the cache itself.
//
// topolint:frozen — gen and the spatial clone are published immutable;
// the slot map and parent link have their own mutation protocol under mu
// and are marked mutable field-by-field.
type genCache struct {
	gen uint64
	in  *spatial.Instance // frozen; never mutated after construction

	mu      sync.Mutex                  // topolint:mutable — the guard itself
	entries map[artifactKey]*cacheEntry // topolint:mutable — single-flight slots, guarded by mu
	parent  *genCache                   // topolint:mutable — cut under mu by dropParent
	added   []string                    // topolint:mutable — cleared with parent under mu
}

// parentLink returns the incremental-derivation link, nil when this
// generation must build cold.
func (c *genCache) parentLink() (*genCache, []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.parent, c.added
}

// dropParent cuts the derivation chain (called when this generation
// becomes a parent itself, bounding retained history to one generation
// back).
func (c *genCache) dropParent() {
	c.mu.Lock()
	c.parent = nil
	c.added = nil
	c.mu.Unlock()
}

// releaseProv clears the delta provenance on the generation's materialized
// arrangement artifacts (the monolithic/stitched arrangement and every
// shard sub-arrangement). Called when the generation becomes a parent
// itself: its provenance points one more generation back, which the cache
// must not retain. Incremental consumers gate on parentLink — cut in the
// same breath — before reading provenance, and in-flight derivations hold
// their own loaded pointer, so clearing under them degrades them to the
// cold fallback at worst.
func (c *genCache) releaseProv() {
	if v, ok := c.completed(artifactKey{kind: arrangementKind}); ok {
		v.(*arrange.Arrangement).ClearProv()
	}
	if v, ok := c.completed(artifactKey{kind: shardedKind}); ok {
		for _, sub := range v.(*arrange.Sharded).Subs {
			if sub != nil {
				sub.ClearProv()
			}
		}
	}
	// Refined (k > 0) universes embed their own scaffolded arrangement;
	// clearing its provenance here keeps a chain of Applies from retaining
	// one refined arrangement per generation.
	c.mu.Lock()
	var refined []artifactKey
	for key := range c.entries {
		if key.kind == universeKind && key.k > 0 {
			refined = append(refined, key)
		}
	}
	c.mu.Unlock()
	for _, key := range refined {
		if v, ok := c.completed(key); ok {
			v.(*folang.Universe).A.ClearProv()
		}
	}
}

// completed returns an artifact's value only if its build already finished
// successfully — it never waits and never triggers a build. The
// incremental paths use it: deriving from a parent artifact is only
// worthwhile when the parent actually materialized one.
func (c *genCache) completed(key artifactKey) (any, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.done:
		if e.err != nil {
			return nil, false
		}
		return e.val, true
	default:
		return nil, false
	}
}

// get returns the artifact for key, invoking build at most once per key —
// concurrent callers for the same key block until the winning computation
// publishes its result. build runs without the cache lock held, so builds
// for different keys proceed in parallel and may themselves call get (the
// derivation chain nests). Waiting on another caller's in-flight build is
// ctx-aware; the expensive builds (arrangement, scaffold universes, the
// S-invariant) honor the winning requester's ctx themselves, and a
// canceled build vacates its slot below so the next requester rebuilds. A
// waiter whose own context is still live when the winner's cancellation
// surfaces retries against the vacated slot — becoming the next winner —
// instead of failing for a deadline that was never its own.
func (c *genCache) get(ctx context.Context, key artifactKey, build func() (any, error)) (any, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			c.mu.Unlock()
			select {
			case <-e.done:
				if e.err != nil && ctx.Err() == nil &&
					(errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
					// The winner's context fired, not ours; the slot was
					// vacated before done closed, so loop and rebuild.
					continue
				}
				return e.val, e.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		e := &cacheEntry{done: make(chan struct{})}
		c.entries[key] = e
		c.mu.Unlock()
		return c.runBuild(key, e, build)
	}
}

// runBuild executes the winning requester's build and publishes the result
// into e, vacating the slot first when the error must not outlive this
// request: context cancellation (the winner's deadline poisons nobody
// else) and ErrTooManyRegions (the region budget is mutable process state,
// so the verdict is not a pure function of the generation — raising the
// budget and retrying must rebuild, as the SetRegionBudget doc promises).
func (c *genCache) runBuild(key artifactKey, e *cacheEntry, build func() (any, error)) (any, error) {
	// A panicking build must still publish: otherwise every waiter on this
	// entry blocks forever. Waiters get an error; the panic propagates to
	// the builder's caller.
	defer func() {
		if r := recover(); r != nil {
			e.val, e.err = nil, fmt.Errorf("topodb: artifact build panicked: %v", r)
			close(e.done)
			panic(r)
		}
	}()
	e.val, e.err = build()
	if e.err != nil && (errors.Is(e.err, context.Canceled) ||
		errors.Is(e.err, context.DeadlineExceeded) ||
		errors.Is(e.err, arrange.ErrTooManyRegions)) {
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// artifactCache hands out the genCache of the instance's current
// generation, creating it (with a frozen clone of the spatial instance) the
// first time a generation is read. Only the newest generation is retained
// here (plus its parent, for incremental derivation); older ones live on
// exactly as long as their snapshots do.
type artifactCache struct {
	mu      sync.Mutex
	cur     *genCache
	pending *delta // mutations committed since cur's generation
}

// delta is the structured record of the mutations between two generations:
// the names purely added, or an invalid marker when the span contained a
// replacement (or any mutation the commit path could not classify).
// Contiguous batches merge, so one delta always spans exactly
// (parentGen, newGen].
type delta struct {
	parentGen, newGen uint64
	added             []string
	invalid           bool
}

// note records a committed mutation batch. Called under the instance write
// lock by applyLocked; mutations that bypass it (Instance.Internal) leave
// the pending delta out of step with the live generation, which at()
// detects and discards — those generations simply build cold.
func (c *artifactCache) note(parentGen, newGen uint64, added []string, invalid bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending != nil && c.pending.newGen == parentGen {
		c.pending.newGen = newGen
		c.pending.added = append(c.pending.added, added...)
		c.pending.invalid = c.pending.invalid || invalid
		return
	}
	c.pending = &delta{
		parentGen: parentGen,
		newGen:    newGen,
		added:     append([]string(nil), added...),
		invalid:   invalid,
	}
}

// at must be called with db.mu held (read or write): the lock guarantees
// the spatial instance — and therefore its generation — cannot move while
// the clone is taken, which is what makes the frozen copy coherent. When
// the recorded delta connects the previous generation to this one as a
// pure extension, the new genCache links to its parent for incremental
// derivation; the parent's own link is cut, so the cache never retains
// more than one superseded generation.
func (c *artifactCache) at(gen uint64, in *spatial.Instance) *genCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil || c.cur.gen != gen {
		g := &genCache{
			gen:     gen,
			in:      in.Clone(),
			entries: make(map[artifactKey]*cacheEntry),
		}
		if p, d := c.cur, c.pending; p != nil && d != nil && !d.invalid &&
			d.parentGen == p.gen && d.newGen == gen && len(d.added) > 0 {
			g.parent = p
			g.added = d.added
			p.dropParent()
			p.releaseProv()
		}
		c.cur = g
		c.pending = nil
	}
	return c.cur
}

// incrementalMax is the largest delta (regions added since the parent
// generation) from which a generation derives its artifacts — the
// arrangement, the query universes (unrefined and refined) and the
// invariant — incrementally; larger deltas take the cold build. It
// balances the incremental path's per-region bookkeeping against the cold
// build's economies of scale: far past the point where single- and
// few-region serving batches land, far below bulk-load territory. Both
// paths produce byte-identical artifacts.
const incrementalMax = 64

// buildArrangement derives the generation's arrangement: from the sharded
// artifact via arrange.Stitch when the instance is past the shard
// threshold (both paths are cell-for-cell identical; the stitched one
// skips the monolithic global sweep and labeling), incrementally from the
// parent generation's materialized arrangement when the recorded delta is
// a small pure extension, cold otherwise. Incremental failures other than
// cancellation fall back to the cold build — Insert rejecting a delta is a
// routing decision, never an error the caller sees.
func (c *genCache) buildArrangement(ctx context.Context) (any, error) {
	if arrange.ShardingEnabled(c.in.Len()) {
		v, err := c.get(ctx, artifactKey{kind: shardedKind}, func() (any, error) {
			return c.buildSharded(ctx)
		})
		if err != nil {
			return nil, err
		}
		sh := v.(*arrange.Sharded)
		// When this generation extends a parent whose sharded artifact and
		// stitched arrangement both materialized, compose the per-shard
		// delta provenance into a global one (StitchInc), so universe and
		// invariant derivation can stay incremental across the stitch.
		if parent, _ := c.parentLink(); parent != nil {
			if pv, ok := parent.completed(artifactKey{kind: shardedKind}); ok {
				if pa, ok2 := parent.completed(artifactKey{kind: arrangementKind}); ok2 {
					a, err := arrange.StitchInc(ctx, sh, pv.(*arrange.Sharded), pa.(*arrange.Arrangement))
					if err != nil {
						return nil, err
					}
					if a.Prov() != nil {
						derivCounters[derivArrangementIncremental].Add(1)
					} else {
						derivCounters[derivArrangementCold].Add(1)
					}
					return a, nil
				}
			}
		}
		derivCounters[derivArrangementCold].Add(1)
		return arrange.Stitch(ctx, sh)
	}
	if parent, added := c.parentLink(); parent != nil &&
		len(added) <= incrementalMax {
		if v, ok := parent.completed(artifactKey{kind: arrangementKind}); ok {
			a, err := arrange.Insert(ctx, v.(*arrange.Arrangement), c.in, added...)
			if err == nil {
				derivCounters[derivArrangementIncremental].Add(1)
				return a, nil
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
		}
	}
	derivCounters[derivArrangementCold].Add(1)
	return arrange.BuildCtx(ctx, c.in)
}

// buildSharded derives the generation's sharded artifact: by
// arrange.InsertSharded from the parent generation's when the recorded
// delta is a small pure extension — untouched shards alias the parent's
// sub-arrangements, only intersected shards rebuild — and cold otherwise,
// fanning the per-shard builds out over the worker pool with each shard in
// its own single-flight cache slot. A fired ctx vacates every per-shard
// slot (vacateShardSlots): a canceled build leaves no half-built
// generation behind, exactly like the monolithic cold build's vacated
// arrangement slot.
func (c *genCache) buildSharded(ctx context.Context) (any, error) {
	if parent, added := c.parentLink(); parent != nil &&
		len(added) <= incrementalMax {
		if v, ok := parent.completed(artifactKey{kind: shardedKind}); ok {
			sh, err := arrange.InsertSharded(ctx, v.(*arrange.Sharded), c.in, added...)
			if err == nil {
				for _, nanos := range sh.BuildNanos {
					if nanos == 0 {
						derivCounters[derivArrangementAliased].Add(1)
					}
				}
				return sh, nil
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
		}
	}
	names := c.in.Names()
	if budget := arrange.RegionBudget(); len(names) > budget {
		return nil, fmt.Errorf("topodb: %w: %d regions exceed the region budget of %d (raise it with SetRegionBudget)",
			arrange.ErrTooManyRegions, len(names), budget)
	}
	plan := arrange.PlanShards(c.in)
	sh := &arrange.Sharded{
		Names:      append([]string(nil), names...),
		Plan:       plan,
		Subs:       make([]*arrange.Arrangement, plan.NumShards()),
		BuildNanos: make([]int64, plan.NumShards()),
	}
	errs := make([]error, plan.NumShards())
	perr := par.ForCtx(ctx, plan.NumShards(), func(i int) {
		t0 := time.Now()
		v, err := c.get(ctx, artifactKey{kind: shardKind, k: i}, func() (any, error) {
			return arrange.BuildCtx(ctx, plan.SubInstance(c.in, i))
		})
		if err == nil {
			sh.Subs[i] = v.(*arrange.Arrangement)
		}
		errs[i] = err
		sh.BuildNanos[i] = time.Since(t0).Nanoseconds()
	})
	if perr != nil || ctx.Err() != nil {
		c.vacateShardSlots()
		return nil, fmt.Errorf("topodb: sharded build canceled: %w", ctx.Err())
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return sh, nil
}

// vacateShardSlots drops every settled per-shard cache slot. Called when a
// sharded build is abandoned mid-flight: shards that completed before the
// cancellation must not linger as orphans of a generation that never
// materialized. In-flight slots are left for their own runBuild to settle
// (a canceled sub-build vacates itself).
func (c *genCache) vacateShardSlots() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, e := range c.entries {
		if key.kind != shardKind {
			continue
		}
		select {
		case <-e.done:
			delete(c.entries, key)
		default:
		}
	}
}

// The typed accessors below are the only consumers of the cache. They are
// Snapshot methods: every artifact derives from the snapshot's frozen
// clone, never from the live instance.

// sharded returns the memoized sharded artifact of the snapshot,
// independent of the shard threshold (callers gate on
// arrange.ShardingEnabled themselves).
func (s *Snapshot) sharded(ctx context.Context) (*arrange.Sharded, error) {
	v, err := s.c.get(ctx, artifactKey{kind: shardedKind}, func() (any, error) {
		return s.c.buildSharded(ctx)
	})
	if err != nil {
		return nil, err
	}
	return v.(*arrange.Sharded), nil
}

// ShardStats reports the sharded artifact's observability counters for a
// snapshot whose sharded artifact has already materialized: shard count,
// per-shard build latencies (0 for shards aliased from the parent
// generation), and the routing counters. It never triggers a build — ok is
// false when the snapshot is below the shard threshold or the artifact has
// not been computed yet.
func (s *Snapshot) ShardStats() (stats ShardStats, ok bool) {
	v, done := s.c.completed(artifactKey{kind: shardedKind})
	if !done {
		return ShardStats{}, false
	}
	sh := v.(*arrange.Sharded)
	one, multi := sh.RoutingCounts()
	return ShardStats{
		Shards:     sh.NumShards(),
		BuildNanos: append([]int64(nil), sh.BuildNanos...),
		OneShard:   one,
		MultiShard: multi,
	}, true
}

// ShardStats is the observability view of a snapshot's sharded artifact.
type ShardStats struct {
	Shards     int     // number of shards in the plan
	BuildNanos []int64 // per-shard build latency; 0 = aliased from parent
	OneShard   uint64  // located queries answered from a single shard
	MultiShard uint64  // located queries that consulted several shards
}

// arrangement returns the memoized cell complex of the snapshot, derived
// incrementally from the parent generation when possible (see
// buildArrangement). The build honors the first requester's ctx; a
// canceled build vacates its slot, so later requesters rebuild.
func (s *Snapshot) arrangement(ctx context.Context) (*arrange.Arrangement, error) {
	v, err := s.c.get(ctx, artifactKey{kind: arrangementKind}, func() (any, error) {
		return s.c.buildArrangement(ctx)
	})
	if err != nil {
		return nil, err
	}
	return v.(*arrange.Arrangement), nil
}

// universe returns the memoized query universe at refinement level k. The
// unrefined universe is built over the shared arrangement — through
// folang.InsertUniverse, which checks the arrangement's provenance against
// the parent generation's universe, when the arrangement itself was
// derived incrementally — and refined ones carry their own scaffolded
// arrangement, derived incrementally from the parent's universe at the
// same k while the scaffold grid stays anchored. Incremental failures
// other than cancellation fall back to the cold build, mirroring
// buildArrangement's discipline.
func (s *Snapshot) universe(ctx context.Context, k int) (*folang.Universe, error) {
	v, err := s.c.get(ctx, artifactKey{kind: universeKind, k: k}, func() (any, error) {
		if k == 0 {
			a, err := s.arrangement(ctx)
			if err != nil {
				return nil, err
			}
			if parent, added := s.c.parentLink(); parent != nil &&
				len(added) <= incrementalMax {
				if v, ok := parent.completed(artifactKey{kind: universeKind, k: 0}); ok {
					u, err := folang.InsertUniverse(ctx, v.(*folang.Universe), a, s.c.in)
					if err == nil {
						derivCounters[derivUniverseIncremental].Add(1)
						return u, nil
					}
					if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						return nil, err
					}
				}
			}
			derivCounters[derivUniverseCold].Add(1)
			return folang.NewUniverseFromArrangementCtx(ctx, a, s.c.in)
		}
		// Refined (k > 0) universes derive from the parent generation's
		// universe at the same k: the scaffold grid is fixed geometry while
		// the instance bounding box is unchanged, so the delta path re-cuts
		// only the added regions' cells (folang.InsertUniverseRefined). A
		// bbox-growing delta fails with arrange.ErrScaffoldMoved and lands
		// on the cold fallback like any other non-cancellation error.
		if parent, added := s.c.parentLink(); parent != nil &&
			len(added) <= incrementalMax {
			if v, ok := parent.completed(artifactKey{kind: universeKind, k: k}); ok {
				u, err := folang.InsertUniverseRefined(ctx, v.(*folang.Universe), s.c.in, k, added...)
				if err == nil {
					derivCounters[derivUniverseRefinedIncremental].Add(1)
					return u, nil
				}
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return nil, err
				}
			}
		}
		derivCounters[derivUniverseRefinedCold].Add(1)
		return folang.NewUniverseCtx(ctx, s.c.in, k)
	})
	if err != nil {
		return nil, err
	}
	return v.(*folang.Universe), nil
}

// invariantT returns the memoized topological invariant T_I, derived
// incrementally from the parent generation's when the arrangement carries
// delta provenance (untouched components keep their canonical traversal
// starts; see invariant.FromArrangementDelta), cold otherwise.
func (s *Snapshot) invariantT(ctx context.Context) (*invariant.T, error) {
	v, err := s.c.get(ctx, artifactKey{kind: invariantKind}, func() (any, error) {
		a, err := s.arrangement(ctx)
		if err != nil {
			return nil, err
		}
		if parent, added := s.c.parentLink(); parent != nil &&
			len(added) <= incrementalMax {
			if v, ok := parent.completed(artifactKey{kind: invariantKind}); ok {
				t, err := invariant.FromArrangementDelta(ctx, a, v.(*invariant.T))
				if err == nil {
					derivCounters[derivInvariantIncremental].Add(1)
					return t, nil
				}
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return nil, err
				}
			}
		}
		derivCounters[derivInvariantCold].Add(1)
		return invariant.FromArrangementCtx(ctx, a)
	})
	if err != nil {
		return nil, err
	}
	return v.(*invariant.T), nil
}

// sinvariantT returns the memoized S-invariant (Theorem 6.1).
func (s *Snapshot) sinvariantT(ctx context.Context) (*invariant.T, error) {
	v, err := s.c.get(ctx, artifactKey{kind: sinvariantKind}, func() (any, error) {
		// Always cold: any delta moves the alignment scaffold globally.
		derivCounters[derivSInvariantCold].Add(1)
		return invariant.SInvariantCtx(ctx, s.c.in)
	})
	if err != nil {
		return nil, err
	}
	return v.(*invariant.T), nil
}

// thematicDB returns the memoized relational image thematic(I).
func (s *Snapshot) thematicDB(ctx context.Context) (*reldb.DB, error) {
	v, err := s.c.get(ctx, artifactKey{kind: thematicKind}, func() (any, error) {
		t, err := s.invariantT(ctx)
		if err != nil {
			return nil, err
		}
		return thematic.FromInvariant(t), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*reldb.DB), nil
}

// regionBoxes returns the memoized per-region bounding boxes (indexed like
// the instance's sorted names). They are derived straight from the spatial
// instance — no arrangement needed — so the all-pairs classifier can prune
// box-disjoint pairs without waiting on, or scanning, the cell complex.
func (s *Snapshot) regionBoxes(ctx context.Context) ([]geom.Box, error) {
	v, err := s.c.get(ctx, artifactKey{kind: boxesKind}, func() (any, error) {
		return s.c.in.Boxes(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]geom.Box), nil
}

// relations returns the memoized all-pairs relation map. Callers must not
// mutate it; the public AllRelations copies. When the generation extends a
// parent whose relation table is already materialized, only the pairs
// touching the added regions are classified — every pre-existing pair's
// relation depends solely on the two unchanged regions and merges from the
// parent table.
func (s *Snapshot) relations(ctx context.Context) (map[[2]string]Relation, error) {
	v, err := s.c.get(ctx, artifactKey{kind: relationsKind}, func() (any, error) {
		boxes, err := s.regionBoxes(ctx)
		if err != nil {
			return nil, err
		}
		parent, added := s.c.parentLink()
		incremental := parent != nil && len(added) <= incrementalMax
		if arrange.ShardingEnabled(s.c.in.Len()) {
			// Sharded path: pairs classify against their shard's
			// sub-arrangement; cross-shard pairs are Disjoint outright. The
			// global arrangement is never stitched for this.
			sh, err := s.sharded(ctx)
			if err != nil {
				return nil, err
			}
			if incremental {
				if v, ok := parent.completed(artifactKey{kind: relationsKind}); ok {
					addedIdx := make([]int, 0, len(added))
					for _, n := range added {
						addedIdx = append(addedIdx, sh.Plan.RegionIndex(n))
					}
					m, err := fourint.AllPairsShardedDelta(sh, boxes, addedIdx, v.(map[[2]string]Relation))
					if err == nil {
						return m, nil
					}
				}
			}
			return fourint.AllPairsSharded(sh, boxes)
		}
		a, err := s.arrangement(ctx)
		if err != nil {
			return nil, err
		}
		if incremental {
			if v, ok := parent.completed(artifactKey{kind: relationsKind}); ok {
				addedIdx := make([]int, 0, len(added))
				for _, n := range added {
					addedIdx = append(addedIdx, a.RegionIndex(n))
				}
				m, err := fourint.AllPairsDelta(a, boxes, addedIdx, v.(map[[2]string]Relation))
				if err == nil {
					return m, nil
				}
			}
		}
		return fourint.AllPairsFromBoxes(a, boxes)
	})
	if err != nil {
		return nil, err
	}
	return v.(map[[2]string]Relation), nil
}
