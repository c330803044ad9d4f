package topodb

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"topodb/internal/arrange"
	"topodb/internal/folang"
	"topodb/internal/fourint"
	"topodb/internal/invariant"
	"topodb/internal/reldb"
	"topodb/internal/spatial"
	"topodb/internal/thematic"
)

// artifactKind enumerates the derived artifacts a generation memoizes. The
// artifacts form a derivation chain — sharded → arrangement → invariant →
// thematic, arrangement → universe(0), arrangement or sharded → relations
// — so one arrangement build feeds every consumer.
type artifactKind int8

const (
	arrangementKind artifactKind = iota
	universeKind
	invariantKind
	sinvariantKind
	thematicKind
	relationsKind
	shardedKind // the *arrange.Sharded artifact, past the shard threshold
)

// artifactKey identifies one cache slot; k is the refinement level for
// universeKind, 0 elsewhere.
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
// generation's cache and the added names: derive then builds each
// artifact from the parent's, e.g. the arrangement by arrange.Insert and
// the relation table by classifying only the pairs touching the added
// regions. The chain is cut at depth one — linking a new generation drops
// the parent's own parent — so at most two generations are ever retained
// by the cache itself.
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
// must not retain. derive gates every delta path on parentLink — cut in
// the same breath — before provenance is read, and in-flight derivations hold
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
// successfully — it never waits and never triggers a build. derive uses
// it: deriving from a parent artifact is only worthwhile when the parent
// actually materialized one.
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
				if e.err != nil && ctx.Err() == nil && isCtxErr(e.err) {
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
	if e.err != nil && (isCtxErr(e.err) || errors.Is(e.err, arrange.ErrTooManyRegions)) {
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
// generation) from which a generation derives an artifact from its
// parent's; larger deltas take the cold build. It balances the delta
// paths' per-region bookkeeping against the cold builds' economies of
// scale: far past the point where single- and few-region serving batches
// land, far below bulk-load territory. Both paths produce byte-identical
// artifacts.
const incrementalMax = 64

// noCount marks a derivation whose outcomes derivCounters does not tally.
const noCount = -1

// errNoLink is a delta path's refusal to derive from the parent
// generation: derive routes it to the cold build like any other
// non-cancellation failure.
var errNoLink = errors.New("topodb: artifact does not link to the parent generation's")

// derive builds one artifact of the generation under the cache's single
// delta policy. When the generation extends a parent by at most
// incrementalMax added regions and the parent's artifact at key has
// completed, delta derives the artifact from that parent cache, its
// artifact and the added names. A canceled delta fails the build; any
// other delta failure is a routing decision, never an error the caller
// sees, and falls back to cold. The outcome is tallied in
// derivCounters[inc] or derivCounters[cold]; noCount tallies nothing.
func (c *genCache) derive(key artifactKey, cold, inc int,
	delta func(parent *genCache, pv any, added []string) (any, error),
	build func() (any, error)) (any, error) {
	if parent, added := c.parentLink(); parent != nil && len(added) <= incrementalMax {
		if pv, ok := parent.completed(key); ok {
			v, err := delta(parent, pv, added)
			if err == nil {
				tally(inc)
				return v, nil
			}
			if isCtxErr(err) {
				return nil, err
			}
		}
	}
	tally(cold)
	return build()
}

func tally(row int) {
	if row != noCount {
		derivCounters[row].Add(1)
	}
}

// The typed accessors below are the only consumers of the cache. They are
// Snapshot methods: every artifact derives from the snapshot's frozen
// clone, never from the live instance.

// sharded returns the memoized sharded artifact of the snapshot,
// independent of the shard threshold (callers gate on
// arrange.ShardingEnabled themselves). A small pure extension derives it
// by arrange.InsertSharded — untouched shards alias the parent's
// sub-arrangements, only intersected shards rebuild, and each aliased
// shard is tallied — and anything else builds it cold by
// arrange.BuildSharded. A canceled build vacates the slot, so no
// half-built generation is left behind.
func (s *Snapshot) sharded(ctx context.Context) (*arrange.Sharded, error) {
	key := artifactKey{kind: shardedKind}
	v, err := s.c.get(ctx, key, func() (any, error) {
		return s.c.derive(key, noCount, noCount,
			func(_ *genCache, psh any, added []string) (any, error) {
				sh, err := arrange.InsertSharded(ctx, psh.(*arrange.Sharded), s.c.in, added...)
				if err != nil {
					return nil, err
				}
				for _, nanos := range sh.BuildNanos {
					if nanos == 0 {
						tally(derivArrangementAliased)
					}
				}
				return sh, nil
			},
			func() (any, error) { return arrange.BuildSharded(ctx, s.c.in) })
	})
	if err != nil {
		return nil, err
	}
	return v.(*arrange.Sharded), nil
}

// ShardStats reports the sharded artifact's observability counters for a
// snapshot whose sharded artifact has already materialized: shard count
// and per-shard build latencies (0 for shards aliased from the parent
// generation). It never triggers a build — ok is false when the snapshot
// is below the shard threshold or the artifact has not been computed yet.
func (s *Snapshot) ShardStats() (stats ShardStats, ok bool) {
	v, done := s.c.completed(artifactKey{kind: shardedKind})
	if !done {
		return ShardStats{}, false
	}
	sh := v.(*arrange.Sharded)
	return ShardStats{Shards: sh.NumShards(), BuildNanos: append([]int64(nil), sh.BuildNanos...)}, true
}

// ShardStats is the observability view of a snapshot's sharded artifact.
type ShardStats struct {
	Shards     int     // number of shards in the plan
	BuildNanos []int64 // per-shard build latency; 0 = aliased from parent
}

// arrangement returns the memoized cell complex of the snapshot. Past the
// shard threshold it is stitched from the sharded artifact (cell-for-cell
// identical to the monolithic build, without its global sweep and
// labeling); below it, a small pure extension derives it by
// arrange.Insert from the parent generation's arrangement and anything
// else builds it cold. The build honors the first requester's ctx; a
// canceled build vacates its slot, so later requesters rebuild.
func (s *Snapshot) arrangement(ctx context.Context) (*arrange.Arrangement, error) {
	key := artifactKey{kind: arrangementKind}
	v, err := s.c.get(ctx, key, func() (any, error) {
		if !arrange.ShardingEnabled(s.c.in.Len()) {
			return s.c.derive(key, derivArrangementCold, derivArrangementIncremental,
				func(_ *genCache, pa any, added []string) (any, error) {
					return arrange.Insert(ctx, pa.(*arrange.Arrangement), s.c.in, added...)
				},
				func() (any, error) { return arrange.BuildCtx(ctx, s.c.in) })
		}
		sh, err := s.sharded(ctx)
		if err != nil {
			return nil, err
		}
		// The stitch derives from the parent's when StitchInc composes the
		// per-shard delta provenance into a global one, so universe and
		// invariant derivation stay incremental across it. A stitch no
		// shard links to the parent's is exactly Stitch's: it is kept for
		// the cold route instead of stitching twice.
		var unlinked *arrange.Arrangement
		return s.c.derive(key, derivArrangementCold, derivArrangementIncremental,
			func(parent *genCache, pa any, _ []string) (any, error) {
				psh, ok := parent.completed(artifactKey{kind: shardedKind})
				if !ok {
					return nil, errNoLink
				}
				a, err := arrange.StitchInc(ctx, sh, psh.(*arrange.Sharded), pa.(*arrange.Arrangement))
				if err == nil && a.Prov() == nil {
					unlinked, err = a, errNoLink
				}
				return a, err
			},
			func() (any, error) {
				if unlinked != nil {
					return unlinked, nil
				}
				return arrange.Stitch(ctx, sh)
			})
	})
	if err != nil {
		return nil, err
	}
	return v.(*arrange.Arrangement), nil
}

// universe returns the memoized query universe at refinement level k. The
// unrefined universe is one linear pass over the shared arrangement,
// however that arrangement was derived, so it is always a cold build.
// Refined ones carry their own scaffolded arrangement: the scaffold grid
// is fixed geometry while the instance bounding box is unchanged, so a
// small pure extension re-cuts only the added regions' cells of the
// parent's universe at the same k (folang.InsertUniverseRefined). A
// bbox-growing delta fails with arrange.ErrScaffoldMoved and builds cold.
func (s *Snapshot) universe(ctx context.Context, k int) (*folang.Universe, error) {
	key := artifactKey{kind: universeKind, k: k}
	v, err := s.c.get(ctx, key, func() (any, error) {
		if k == 0 {
			a, err := s.arrangement(ctx)
			if err != nil {
				return nil, err
			}
			tally(derivUniverseCold)
			return folang.NewUniverseFromArrangementCtx(ctx, a, s.c.in)
		}
		return s.c.derive(key, derivUniverseRefinedCold, derivUniverseRefinedIncremental,
			func(_ *genCache, pu any, added []string) (any, error) {
				return folang.InsertUniverseRefined(ctx, pu.(*folang.Universe), s.c.in, k, added...)
			},
			func() (any, error) { return folang.NewUniverseCtx(ctx, s.c.in, k) })
	})
	if err != nil {
		return nil, err
	}
	return v.(*folang.Universe), nil
}

// invariantT returns the memoized topological invariant T_I, derived from
// the parent generation's when the arrangement carries delta provenance
// (untouched components keep their canonical traversal starts; see
// invariant.FromArrangementDelta), cold otherwise.
func (s *Snapshot) invariantT(ctx context.Context) (*invariant.T, error) {
	key := artifactKey{kind: invariantKind}
	v, err := s.c.get(ctx, key, func() (any, error) {
		a, err := s.arrangement(ctx)
		if err != nil {
			return nil, err
		}
		return s.c.derive(key, derivInvariantCold, derivInvariantIncremental,
			func(_ *genCache, pt any, _ []string) (any, error) {
				return invariant.FromArrangementDelta(ctx, a, pt.(*invariant.T))
			},
			func() (any, error) { return invariant.FromArrangementCtx(ctx, a) })
	})
	if err != nil {
		return nil, err
	}
	return v.(*invariant.T), nil
}

// sinvariantT returns the memoized S-invariant (Theorem 6.1). It is always
// cold: any delta moves the alignment scaffold globally.
func (s *Snapshot) sinvariantT(ctx context.Context) (*invariant.T, error) {
	v, err := s.c.get(ctx, artifactKey{kind: sinvariantKind}, func() (any, error) {
		tally(derivSInvariantCold)
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

// relations returns the memoized all-pairs relation map. Callers must not
// mutate it; the public AllRelations copies. Box-disjoint pairs are
// Disjoint without a cell scan. Past the shard threshold the remaining
// pairs classify against their shard's sub-arrangement and the global
// arrangement is never stitched for this. A small pure extension merges
// every pre-existing pair from the parent's table — a pair's relation
// depends solely on its two unchanged regions — and classifies only the
// pairs touching the added regions. Relations are not tallied.
func (s *Snapshot) relations(ctx context.Context) (map[[2]string]Relation, error) {
	key := artifactKey{kind: relationsKind}
	v, err := s.c.get(ctx, key, func() (any, error) {
		boxes := s.c.in.Boxes()
		if arrange.ShardingEnabled(s.c.in.Len()) {
			sh, err := s.sharded(ctx)
			if err != nil {
				return nil, err
			}
			return s.c.derive(key, noCount, noCount,
				func(_ *genCache, pr any, added []string) (any, error) {
					return fourint.AllPairsShardedDelta(sh, boxes, indices(sh.Plan.RegionIndex, added), pr.(map[[2]string]Relation))
				},
				func() (any, error) { return fourint.AllPairsSharded(sh, boxes) })
		}
		a, err := s.arrangement(ctx)
		if err != nil {
			return nil, err
		}
		return s.c.derive(key, noCount, noCount,
			func(_ *genCache, pr any, added []string) (any, error) {
				return fourint.AllPairsDelta(a, boxes, indices(a.RegionIndex, added), pr.(map[[2]string]Relation))
			},
			func() (any, error) { return fourint.AllPairsFromBoxes(a, boxes) })
	})
	if err != nil {
		return nil, err
	}
	return v.(map[[2]string]Relation), nil
}

// indices maps region names through index.
func indices(index func(string) int, names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = index(n)
	}
	return out
}
