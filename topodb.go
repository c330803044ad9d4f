// Package topodb is a spatial database library for topological queries,
// reproducing Papadimitriou, Suciu & Vianu, "Topological Queries in
// Spatial Databases" (PODS 1996 / JCSS 1999).
//
// The library provides:
//
//   - a spatial data model (named regions with exact rational polygonal
//     boundaries, covering the paper's Rect, Rect*, Poly and simulated
//     Alg/Disc classes),
//   - the topological invariant T_I (§3): a finite structure that
//     characterizes an instance up to homeomorphism, with an effective
//     equivalence test (Theorem 3.4),
//   - the thematic mapping into a classical relational database and the
//     invariant validity check (Corollary 3.7, Theorem 3.8),
//   - Egenhofer's eight 4-intersection relations (§2),
//   - the region-based query language FO(Region, Region′) with the §7
//     cell-quantifier semantics, and the point-based FO(P, <x, <y),
//   - topological inference (path consistency and satisfiability over
//     relation networks, §6 / [GPP95]),
//   - a Fáry/Tutte polygonal-representative construction (Theorem 3.5).
//
// # Serving API: snapshots, prepared queries, transactions
//
// The paper's central complexity result is that the expensive step of
// topological query answering is building the invariant structure; after
// that, queries are classical relational evaluation. The API mirrors the
// split the way a database driver would:
//
//   - Snapshot pins an immutable view of one mutation generation. All
//     reads (Query, Select, Relate, AllRelations, Invariant, Thematic,
//     the equivalence tests) run on snapshots against a frozen region
//     table, so long evaluations never block — and are never blocked by
//     — writers. Derived artifacts (arrangement, per-level query
//     universes, invariant, S-invariant, thematic image, relation
//     table) are memoized per generation and shared by every snapshot
//     of it.
//   - Prepare parses and analyzes a query once; PreparedQuery.Eval
//     re-evaluates it on the current generation with zero parse cost,
//     and PreparedQuery.Select enumerates witness bindings instead of a
//     bare verdict.
//   - Apply stages a batch of Add* mutations and commits them under one
//     write-lock acquisition, atomically with respect to snapshots.
//   - Query-shaped entry points accept a context; evaluation honors
//     cancellation (ErrCanceled) at quantifier-binding granularity.
//   - Errors are typed: ErrParse, ErrNoRegion, ErrTooManyRegions,
//     ErrCanceled, ErrNotSelectable match under errors.Is.
//   - Instance size is bounded only by the configurable region budget
//     (SetRegionBudget, default 4096): owner sets are interned member
//     lists and cell labels store only their non-Exterior entries, so
//     thousand-region instances are served
//     through the same snapshot and incremental-maintenance machinery.
//
// The Instance-level read methods remain as thin wrappers that take a
// fresh snapshot per call, so pre-snapshot code keeps working unchanged.
// The one escape hatch is Internal(): callers that mutate the returned
// spatial instance directly must not do so concurrently with reads
// (mutations through it are still detected between calls, because
// snapshots are stamped with the instance's mutation generation).
//
// Quick start:
//
//	db := topodb.NewInstance()
//	db.Apply(func(tx *topodb.Txn) error {
//		tx.AddRect("A", 0, 0, 4, 4)
//		tx.AddRect("B", 2, 2, 6, 6)
//		return nil
//	})
//	rel, _ := db.Relate("A", "B")        // overlap
//	inv, _ := db.Invariant()             // T_I
//	pq, _ := db.Prepare("some cell r: subset(r, A) and subset(r, B)")
//	ok, _ := pq.Eval(ctx)
//	res, _ := pq.Select(ctx)             // witness cells, not just a verdict
package topodb

import (
	"context"
	"fmt"
	"sync"

	"topodb/internal/fourint"
	"topodb/internal/geom"
	"topodb/internal/invariant"
	"topodb/internal/rat"
	"topodb/internal/region"
	"topodb/internal/reldb"
	"topodb/internal/spatial"
	"topodb/internal/thematic"
)

// Instance is a spatial database instance: a finite set of named regions
// plus the per-generation caches of the derived artifacts (arrangement,
// query universes, invariant, thematic image, relation table). Methods
// are safe for concurrent use; see the package comment for the snapshot
// semantics.
type Instance struct {
	mu    sync.RWMutex // mutators hold W; readers hold R only to pin a snapshot
	in    *spatial.Instance
	cache artifactCache
}

// NewInstance returns an empty instance.
func NewInstance() *Instance { return &Instance{in: spatial.New()} }

// wrap adopts an internal instance.
func wrap(in *spatial.Instance) *Instance { return &Instance{in: in} }

// Wrap adopts an existing internal spatial instance (fixtures, generators,
// CLIs). The caller must not mutate in directly afterwards except through
// Internal(), and never concurrently with reads.
func Wrap(in *spatial.Instance) *Instance { return wrap(in) }

// Internal returns the underlying instance for advanced use with the
// internal packages (examples and benchmarks in this module). Mutating it
// directly bypasses the Instance lock: do not do so concurrently with
// other calls. Sequential mutations are safe — they bump the instance
// generation, which retires the current snapshot generation on the next
// read.
func (db *Instance) Internal() *spatial.Instance { return db.in }

// add runs a single mutation under the write lock, through the same
// delta-recording commit path as Apply. The caches need no explicit
// flush: the mutation bumps the spatial generation, and the next read
// starts a fresh snapshot generation — derived incrementally from this
// one when the recorded delta allows it.
func (db *Instance) add(name string, r region.Region) error {
	return db.applyLocked([]stagedAdd{{name: name, r: r}})
}

// mkRect constructs an open axis-parallel rectangle region.
func mkRect(x1, y1, x2, y2 int64) (region.Region, error) {
	return region.NewRect(rat.FromInt(x1), rat.FromInt(y1), rat.FromInt(x2), rat.FromInt(y2))
}

// mkPolygon constructs a simple-polygon region from (x,y) pairs.
func mkPolygon(coords []int64) (region.Region, error) {
	if len(coords) < 6 || len(coords)%2 != 0 {
		return region.Region{}, fmt.Errorf("topodb: polygon needs >= 3 (x,y) pairs")
	}
	ring := make(geom.Ring, 0, len(coords)/2)
	for i := 0; i+1 < len(coords); i += 2 {
		ring = append(ring, geom.P(coords[i], coords[i+1]))
	}
	return region.NewPoly(ring)
}

// mkCircle constructs a discretized circle region with >= n vertices.
func mkCircle(cx, cy, radius int64, n int) (region.Region, error) {
	return region.NewCircle(rat.FromInt(cx), rat.FromInt(cy), rat.FromInt(radius), n)
}

// mkRectUnion constructs a Rect* region from rectangle coordinates.
func mkRectUnion(rects [][4]int64) (region.Region, error) {
	rs := make([]region.Region, 0, len(rects))
	for _, q := range rects {
		rs = append(rs, region.MustRect(q[0], q[1], q[2], q[3]))
	}
	return region.NewRectUnion(rs...)
}

// AddRect adds an open axis-parallel rectangle (x1,y1)-(x2,y2).
func (db *Instance) AddRect(name string, x1, y1, x2, y2 int64) error {
	r, err := mkRect(x1, y1, x2, y2)
	if err != nil {
		return err
	}
	return db.add(name, r)
}

// AddPolygon adds a simple polygon given by its vertices (x,y pairs).
func (db *Instance) AddPolygon(name string, coords ...int64) error {
	r, err := mkPolygon(coords)
	if err != nil {
		return err
	}
	return db.add(name, r)
}

// AddCircle adds a discretized circle (an Alg region: all vertices lie
// exactly on the circle) with at least n boundary vertices.
func (db *Instance) AddCircle(name string, cx, cy, radius int64, n int) error {
	r, err := mkCircle(cx, cy, radius, n)
	if err != nil {
		return err
	}
	return db.add(name, r)
}

// AddRectUnion adds a Rect* region: the union of the given rectangles
// (each four int64 coordinates), which must form a disc.
func (db *Instance) AddRectUnion(name string, rects ...[4]int64) error {
	r, err := mkRectUnion(rects)
	if err != nil {
		return err
	}
	return db.add(name, r)
}

// Gen returns the instance's current mutation generation — the stamp a
// Snapshot taken now would pin (Snapshot.Gen). Serving tiers use it as a
// cheap coalescing key: two requests observing the same generation may
// share one evaluation, because every snapshot of a generation reads the
// same frozen state.
func (db *Instance) Gen() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.in.Gen()
}

// Names returns the region names in sorted order. The caller owns the
// returned slice (it is a copy: the internal one may be shifted in place
// by later mutations).
func (db *Instance) Names() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return append([]string(nil), db.in.Names()...)
}

// Relation re-exports the eight 4-intersection relations.
type Relation = fourint.Relation

// The eight relations (§2, Fig 2).
const (
	Disjoint  = fourint.Disjoint
	Meet      = fourint.Meet
	EqualRel  = fourint.Equal
	Overlap   = fourint.Overlap
	Inside    = fourint.Inside
	Contains  = fourint.Contains
	CoveredBy = fourint.CoveredBy
	Covers    = fourint.Covers
)

// Relate classifies the 4-intersection relation between two regions on a
// fresh snapshot. See Snapshot.Relate.
func (db *Instance) Relate(a, b string) (Relation, error) {
	return db.Snapshot().Relate(a, b)
}

// AllRelations computes the relation for every ordered pair on a fresh
// snapshot. The returned map is a copy the caller owns.
func (db *Instance) AllRelations() (map[[2]string]Relation, error) {
	return db.Snapshot().AllRelations()
}

// Invariant is the topological invariant T_I of an instance.
type Invariant struct {
	t *invariant.T
}

// Invariant computes T_I (§3, Theorem 3.4) on a fresh snapshot. The
// result is cached per generation: repeated calls on an unchanged
// instance return views of the same structure, and the underlying
// arrangement is shared with Query, Relate and Thematic.
func (db *Instance) Invariant() (*Invariant, error) {
	return db.Snapshot().Invariant()
}

// Stats returns the invariant's cell counts (vertices, edges, faces).
func (iv *Invariant) Stats() (v, e, f int) { return iv.t.Stats() }

// Connected reports whether the instance's skeleton is connected.
func (iv *Invariant) Connected() bool { return iv.t.Connected() }

// Simple reports whether the instance is simple in the paper's sense.
func (iv *Invariant) Simple() bool { return iv.t.Simple() }

// Canonical returns the canonical encoding: equal encodings (over equal
// name sets) mean topologically equivalent instances. Safe for concurrent
// use.
func (iv *Invariant) Canonical() string { return iv.t.Canonical() }

// String pretty-prints the invariant.
func (iv *Invariant) String() string { return iv.t.String() }

// Internal exposes the underlying structure for advanced use. The
// structure may be shared with the instance's cache: treat it as
// read-only.
func (iv *Invariant) Internal() *invariant.T { return iv.t }

// Equivalent reports whether two instances are topologically equivalent —
// related by a homeomorphism of the plane fixing region names
// (Theorem 3.4). Each instance is snapshotted once, never holding both
// locks.
func Equivalent(a, b *Instance) (bool, error) {
	return a.Snapshot().Equivalent(b.Snapshot())
}

// FourIntersectionEquivalent reports whether two instances are
// 4-intersection equivalent (§2) — a strictly coarser relation than
// topological equivalence (Fig 1).
func FourIntersectionEquivalent(a, b *Instance) (bool, error) {
	return a.Snapshot().FourIntersectionEquivalent(b.Snapshot())
}

// SEquivalent reports whether two instances are equivalent up to a
// symmetry (the paper's group S of monotone coordinate maps), decided via
// the S-invariant of Theorem 6.1 / Fig 14 — a strictly finer relation
// than topological equivalence.
func SEquivalent(a, b *Instance) (bool, error) {
	return a.Snapshot().SEquivalent(b.Snapshot())
}

// Thematic computes the relational image thematic(I) over schema Th
// (§3, Corollary 3.7) on a fresh snapshot. Topological queries on the
// instance become classical relational queries on the result. The
// database is cached per generation and shared between callers: treat it
// as read-only.
func (db *Instance) Thematic() (*reldb.DB, error) {
	return db.Snapshot().Thematic()
}

// ValidateThematic checks the labeled-planar-graph integrity conditions
// (1)–(7) of Theorem 3.8 on a relational instance over schema Th.
func ValidateThematic(d *reldb.DB) error { return thematic.Validate(d) }

// Query parses and evaluates a region-based query (§4/§7 semantics) with
// default options and no grid refinement, on a fresh snapshot. The
// language:
//
//	some|all region|cell|name x: φ
//	φ ::= pred(t, t) | t = t | not φ | φ and φ | φ or φ | φ implies φ
//	pred ∈ {disjoint, meet, equal, overlap, inside, contains,
//	        covers, coveredby, connect, subset}
//
// For repeated evaluation prefer Prepare, which parses once; for
// cancellation and deadlines use Snapshot.Query or PreparedQuery.Eval,
// which accept a context.
func (db *Instance) Query(src string) (bool, error) {
	return db.QueryRefined(src, 0)
}

// QueryRefined evaluates a query on the arrangement refined by a k×k
// scaffold grid (finer cells admit more witness regions for the strong
// quantifier; k = 0 is the paper's plain cell complex). Each refinement
// level caches its own universe.
func (db *Instance) QueryRefined(src string, k int) (bool, error) {
	return db.Snapshot().QueryRefined(context.Background(), src, k)
}

// QueryBatch evaluates a batch of queries against one snapshot's cached
// universe, fanning evaluation out over a bounded worker pool.
// results[i] is the verdict of queries[i]. Every query is attempted:
// when some fail, the error is a *BatchError locating each failure by
// position and the sibling verdicts remain valid.
func (db *Instance) QueryBatch(queries []string) ([]bool, error) {
	return db.QueryBatchRefined(queries, 0)
}

// QueryBatchRefined is QueryBatch on the k×k-refined universe.
func (db *Instance) QueryBatchRefined(queries []string, k int) ([]bool, error) {
	return db.Snapshot().QueryBatchRefined(context.Background(), queries, k)
}

// Select parses a query whose outermost node is a quantifier and
// enumerates its satisfying bindings on a fresh snapshot. See
// PreparedQuery.Select for the prepared form and the Result shape.
func (db *Instance) Select(ctx context.Context, src string) (*Result, error) {
	return db.Snapshot().Select(ctx, src)
}

// PolygonalRepresentative returns a Poly instance topologically
// equivalent to this one (Theorem 3.5); keepEvery > 1 coarsens
// discretized boundaries.
func (db *Instance) PolygonalRepresentative(keepEvery int) (*Instance, error) {
	return db.Snapshot().PolygonalRepresentative(keepEvery)
}
