package topodb

import (
	"context"
	"errors"

	"topodb/internal/arrange"
	"topodb/internal/fary"
	"topodb/internal/folang"
	"topodb/internal/fourint"
	"topodb/internal/invariant"
	"topodb/internal/reldb"
)

// Snapshot is an immutable view of an Instance pinned to one mutation
// generation: a frozen copy of the region set plus that generation's
// derived-artifact cache. Every read runs against the frozen copy without
// touching the Instance lock, so arbitrarily long evaluations (a deep
// Select, a refined universe build) never contend with Add*/Apply
// writers, and a reader holding a Snapshot across many calls observes one
// consistent state no matter how the instance mutates meanwhile.
//
// Snapshots of the same generation share one artifact cache — taking a
// snapshot is cheap (a lock acquisition and, for a generation's first
// snapshot, one shallow clone of the region table), and the expensive
// arrangement is still built at most once per generation. A Snapshot
// stays valid forever; it simply keeps its generation's artifacts alive
// until the last reference drops.
//
// topolint:frozen — a snapshot never repoints its generation.
type Snapshot struct {
	c *genCache
}

// Snapshot pins the instance's current generation and returns its
// immutable view. All methods on the result are safe for concurrent use.
func (db *Instance) Snapshot() *Snapshot {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return &Snapshot{c: db.cache.at(db.in.Gen(), db.in)}
}

// Gen returns the mutation generation this snapshot pins.
func (s *Snapshot) Gen() uint64 { return s.c.gen }

// Names returns the snapshot's region names in sorted order. The caller
// owns the returned slice.
func (s *Snapshot) Names() []string {
	return append([]string(nil), s.c.in.Names()...)
}

// Len returns the number of regions in the snapshot.
func (s *Snapshot) Len() int { return s.c.in.Len() }

// Relate classifies the 4-intersection relation between two regions. It
// reads the snapshot's cached arrangement, so after the first
// derived-artifact computation every pair costs one pass over the cells.
// A missing name fails with ErrNoRegion.
func (s *Snapshot) Relate(a, b string) (Relation, error) {
	if _, ok := s.c.in.Ext(a); !ok {
		return 0, noRegion(a)
	}
	if _, ok := s.c.in.Ext(b); !ok {
		return 0, noRegion(b)
	}
	if arrange.ShardingEnabled(s.c.in.Len()) {
		// Sharded fast path: scan only the one shard holding both regions;
		// regions in different shards have disjoint closed bounding boxes
		// and are Disjoint without touching any cell complex.
		sh, err := s.sharded(context.Background())
		if err != nil {
			return 0, err
		}
		ri, rj := sh.Plan.RegionIndex(a), sh.Plan.RegionIndex(b)
		c := sh.MatrixShard(ri, rj)
		if c < 0 {
			return Disjoint, nil
		}
		return fourint.Classify(fourint.MatrixOf(sh.Subs[c], sh.Plan.LocalIndex(ri), sh.Plan.LocalIndex(rj)))
	}
	arr, err := s.arrangement(context.Background())
	if err != nil {
		return 0, err
	}
	return fourint.Classify(fourint.MatrixOf(arr, arr.RegionIndex(a), arr.RegionIndex(b)))
}

// AllRelations computes the relation for every ordered pair of distinct
// regions. The table is cached in the snapshot; the returned map is a
// copy the caller owns.
func (s *Snapshot) AllRelations() (map[[2]string]Relation, error) {
	rels, err := s.relations(context.Background())
	if err != nil {
		return nil, err
	}
	out := make(map[[2]string]Relation, len(rels))
	for k, v := range rels {
		out[k] = v
	}
	return out, nil
}

// Invariant computes the topological invariant T_I of the snapshot (§3,
// Theorem 3.4). Repeated calls return views of the same cached structure.
func (s *Snapshot) Invariant() (*Invariant, error) {
	t, err := s.invariantT(context.Background())
	if err != nil {
		return nil, err
	}
	return &Invariant{t: t}, nil
}

// Thematic computes the relational image thematic(I) over schema Th (§3,
// Corollary 3.7). The database is cached in the snapshot and shared
// between callers: treat it as read-only.
func (s *Snapshot) Thematic() (*reldb.DB, error) {
	return s.thematicDB(context.Background())
}

// Query parses and evaluates a region-based query (§4/§7 semantics) on
// the snapshot, honoring ctx during evaluation. Malformed queries fail
// with ErrParse, references to absent regions with ErrNoRegion, and a
// fired context with ErrCanceled.
func (s *Snapshot) Query(ctx context.Context, src string) (bool, error) {
	return s.QueryRefined(ctx, src, 0)
}

// QueryRefined is Query on the arrangement refined by a k×k scaffold
// grid (k = 0 is the paper's plain cell complex). Each refinement level
// caches its own universe in the snapshot.
func (s *Snapshot) QueryRefined(ctx context.Context, src string, k int) (bool, error) {
	f, err := folang.Parse(src)
	if err != nil {
		return false, err
	}
	return s.evalFormula(ctx, f, folang.Analyze(f), k)
}

// QueryBatch evaluates a batch of queries against the snapshot's cached
// universe, fanning evaluation out over a bounded worker pool. Every
// query is attempted: results[i] is the verdict of queries[i], and when
// some queries fail the error is a *BatchError locating each failure by
// position while the sibling verdicts remain valid.
func (s *Snapshot) QueryBatch(ctx context.Context, queries []string) ([]bool, error) {
	return s.QueryBatchRefined(ctx, queries, 0)
}

// QueryBatchRefined is QueryBatch on the k×k-refined universe.
func (s *Snapshot) QueryBatchRefined(ctx context.Context, queries []string, k int) ([]bool, error) {
	u, err := s.universe(ctx, k)
	if err != nil {
		err = wrapCanceled(err)
		if errors.Is(err, ErrCanceled) && len(queries) > 0 {
			// A fired context now aborts the universe build itself (the
			// arrangement construction is ctx-aware), before any query
			// ran. The batch contract stays the same: every query is
			// reported failed, individually typed.
			be := &BatchError{Errs: make([]*QueryError, len(queries))}
			for i := range queries {
				be.Errs[i] = &QueryError{Index: i, Src: queries[i], Err: err}
			}
			return make([]bool, len(queries)), be
		}
		return nil, err
	}
	results, err := folang.EvaluateAllCtx(ctx, u, queries)
	var be *BatchError
	if errors.As(err, &be) {
		// Brand each per-query context error so errors.Is(qe, ErrCanceled)
		// holds for individual failures, not just the aggregate.
		for _, qe := range be.Errs {
			qe.Err = wrapCanceled(qe.Err)
		}
		return results, err
	}
	return results, wrapCanceled(err)
}

// Select parses a query whose outermost node is a quantifier and
// enumerates the satisfying bindings of that quantifier on the snapshot:
// region names, cell ids, or — for the region sort — witness face sets
// up to the enumeration budget (see PreparedQuery.Select for the
// prepared form and the budget semantics).
func (s *Snapshot) Select(ctx context.Context, src string) (*Result, error) {
	return s.SelectRefined(ctx, src, 0)
}

// SelectRefined is Select on the k×k-refined universe.
func (s *Snapshot) SelectRefined(ctx context.Context, src string, k int) (*Result, error) {
	f, err := folang.Parse(src)
	if err != nil {
		return nil, err
	}
	return s.selectFormula(ctx, f, folang.Analyze(f), k)
}

// PolygonalRepresentative returns a Poly instance topologically
// equivalent to the snapshot (Theorem 3.5); keepEvery > 1 coarsens
// discretized boundaries.
func (s *Snapshot) PolygonalRepresentative(keepEvery int) (*Instance, error) {
	out, err := fary.Polygonalize(s.c.in, keepEvery)
	if err != nil {
		return nil, err
	}
	return wrap(out), nil
}

// Equivalent reports whether two snapshots are topologically equivalent —
// related by a homeomorphism of the plane fixing region names
// (Theorem 3.4). Both invariants are cached in their snapshots.
func (s *Snapshot) Equivalent(t *Snapshot) (bool, error) {
	si, err := s.invariantT(context.Background())
	if err != nil {
		return false, err
	}
	ti, err := t.invariantT(context.Background())
	if err != nil {
		return false, err
	}
	return invariant.Equivalent(si, ti), nil
}

// SEquivalent reports whether two snapshots are equivalent up to a
// symmetry (the paper's group S of monotone coordinate maps), decided via
// the S-invariant of Theorem 6.1 / Fig 14 — a strictly finer relation
// than topological equivalence. Both S-invariants are cached.
func (s *Snapshot) SEquivalent(t *Snapshot) (bool, error) {
	ss, err := s.sinvariantT(context.Background())
	if err != nil {
		return false, err
	}
	ts, err := t.sinvariantT(context.Background())
	if err != nil {
		return false, err
	}
	return invariant.Equivalent(ss, ts), nil
}

// FourIntersectionEquivalent reports whether two snapshots are
// 4-intersection equivalent (§2) — a strictly coarser relation than
// topological equivalence (Fig 1).
func (s *Snapshot) FourIntersectionEquivalent(t *Snapshot) (bool, error) {
	// Differing name sets short-circuit before any relation table is
	// computed.
	sn, tn := s.c.in.Names(), t.c.in.Names()
	if len(sn) != len(tn) {
		return false, nil
	}
	for i := range sn {
		if sn[i] != tn[i] {
			return false, nil
		}
	}
	rs, err := s.relations(context.Background())
	if err != nil {
		return false, err
	}
	rt, err := t.relations(context.Background())
	if err != nil {
		return false, err
	}
	for k, v := range rs {
		if rt[k] != v {
			return false, nil
		}
	}
	return true, nil
}

// evalFormula evaluates a parsed formula on the snapshot at refinement
// level k: build (or hit) the universe, fail fast on free names the
// snapshot lacks, then run the ctx-aware evaluator.
func (s *Snapshot) evalFormula(ctx context.Context, f folang.Formula, info *folang.QueryInfo, k int) (bool, error) {
	u, err := s.universe(ctx, k)
	if err != nil {
		return false, wrapCanceled(err)
	}
	if missing := info.MissingNames(u); len(missing) > 0 {
		return false, noRegion(missing[0])
	}
	ok, err := folang.NewEvaluator(u).EvalCtx(ctx, f)
	return ok, wrapCanceled(err)
}

// selectFormula enumerates the outer-quantifier bindings of a parsed
// formula on the snapshot at refinement level k.
func (s *Snapshot) selectFormula(ctx context.Context, f folang.Formula, info *folang.QueryInfo, k int) (*Result, error) {
	u, err := s.universe(ctx, k)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	if missing := info.MissingNames(u); len(missing) > 0 {
		return nil, noRegion(missing[0])
	}
	sel, err := folang.NewEvaluator(u).Select(ctx, f)
	if err != nil {
		return nil, wrapCanceled(err)
	}
	return &Result{
		Var: sel.Var, Sort: sel.Sort.String(),
		Names: sel.Names, Cells: sel.Cells, Regions: sel.Regions,
		Complete: sel.Complete,
	}, nil
}
