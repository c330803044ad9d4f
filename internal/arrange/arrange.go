// Package arrange computes the exact planar arrangement (cell complex) of
// all region boundaries of a spatial instance. It is this repository's
// stand-in for the Kozen–Yap cell-decomposition algorithm the paper relies
// on (§3): the output is a cell complex in the paper's sense — cells of
// dimension 0 (vertices), 1 (edges) and 2 (faces), each labeled with a sign
// class over the region names (interior / boundary / exterior), together
// with the adjacency structure, the rotation system (cyclic edge order
// around each vertex, the paper's relation O), the nesting forest of
// connected components, and the distinguished exterior face f0.
//
// All computations are exact (rational arithmetic), so the combinatorial
// output is correct by construction.
package arrange

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/spatial"
)

// Sign is a region-relative sign: interior, boundary, or exterior.
// It matches the paper's labels o, ∂, −.
type Sign int8

const (
	// Exterior of the region ("−").
	Exterior Sign = iota
	// Boundary of the region ("∂").
	Boundary
	// Interior of the region ("o").
	Interior
)

func (s Sign) String() string {
	switch s {
	case Interior:
		return "o"
	case Boundary:
		return "∂"
	}
	return "-"
}

// Label is a cell's sign vector over the region names, indexed like
// Arrangement.Names — the paper's labeling σ: names(I) → {o, ∂, −}.
//
// It is stored sparsely: only the entries that are not Exterior, ascending
// by region index, plus the width (the region count) for rendering. A cell
// is Exterior to every region whose boundary box misses it, so a label
// costs O(regions touching the cell), not O(regions); the passes that
// build, stitch and extend labels are proportional to those entries too.
// Labels are immutable once their arrangement is built, and several labels
// (within one arrangement, or across an Insert parent and child) may share
// entry storage.
//
// The zero Label has width 0.
type Label struct {
	ents []labelEnt
	n    int
}

// labelEnt packs one non-Exterior entry: region index << 2 | Sign. Packed
// entries sort exactly like their region indices.
type labelEnt uint32

func mkEnt(ri int, s Sign) labelEnt { return labelEnt(ri)<<2 | labelEnt(s) }

func (e labelEnt) region() int { return int(e >> 2) }
func (e labelEnt) sign() Sign  { return Sign(e & 3) }

// Len returns the label's width: the number of region names it spans.
func (l Label) Len() int { return l.n }

// At returns the cell's sign for region index ri (Exterior for every
// region not among the entries).
func (l Label) At(ri int) Sign {
	e := l.ents
	lo, hi := 0, len(e)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if e[m].region() < ri {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(e) && e[lo].region() == ri {
		return e[lo].sign()
	}
	return Exterior
}

// NumEntries returns the number of regions the cell is not Exterior to.
func (l Label) NumEntries() int { return len(l.ents) }

// Entry returns the k-th non-Exterior entry, 0 ≤ k < NumEntries(): the
// region index and its sign. Entries ascend by region index.
func (l Label) Entry(k int) (ri int, s Sign) {
	e := l.ents[k]
	return e.region(), e.sign()
}

// Key returns the canonical dense rendering of the label: one character
// per region, '-' Exterior, 'b' Boundary, 'o' Interior. It is built in
// one allocation: runs of '-' between the entries are copied from dashes.
func (l Label) Key() string {
	var b strings.Builder
	b.Grow(l.n)
	at := 0
	pad := func(to int) {
		for at < to {
			k := min(to-at, len(dashes))
			b.WriteString(dashes[:k])
			at += k
		}
	}
	for _, e := range l.ents {
		pad(e.region())
		b.WriteByte("-bo"[e.sign()])
		at++
	}
	pad(l.n)
	return b.String()
}

// dashes is a run of Exterior characters Key copies from.
var dashes = strings.Repeat("-", 256)

// String renders the label like Key.
func (l Label) String() string { return l.Key() }

// ErrTooManyRegions marks an instance beyond the configurable region
// budget (SetRegionBudget); Build wraps it, and the public topodb package
// aliases it for errors.Is.
var ErrTooManyRegions = errors.New("too many regions")

// ErrScaffoldMoved marks an incremental derivation whose scaffold differs
// from the parent arrangement's: the scaffold lines moved (typically
// because the delta grew the instance bounding box that anchors them), so
// delta-local re-cutting is unsound and the caller must rebuild cold.
// InsertWithScaffoldCtx wraps it for errors.Is.
var ErrScaffoldMoved = errors.New("scaffold moved")

// Vertex is a 0-cell of the arrangement.
type Vertex struct {
	P geom.Pt
	// Out lists the half-edges with origin at this vertex in
	// counterclockwise rotation order (the rotation system).
	Out []int
	// Comp is the connected component (of the skeleton) index.
	Comp int
	// Label is the vertex's sign class.
	Label Label
}

// Edge is a 1-cell: a straight segment between two arrangement vertices,
// interior-disjoint from all other cells.
type Edge struct {
	V1, V2 int    // endpoint vertex indices
	Owners Owners // regions whose boundary contains this edge
	H1, H2 int    // the two half-edges (H1: V1→V2, H2: V2→V1)
	Label  Label  // sign class of the edge's relative interior
	Comp   int
}

// HalfEdge is a directed edge of the DCEL.
type HalfEdge struct {
	Edge   int // parent edge
	Origin int // origin vertex
	Twin   int // opposite half-edge
	Next   int // next half-edge along the face (face on the left)
	Face   int // global face index (set after face merge)
}

// Face is a 2-cell of the arrangement (a connected component of the
// complement of the skeleton).
type Face struct {
	// Walks lists the boundary walks: indices of one half-edge per walk;
	// the full walk is recovered by following Next. The first walk is the
	// face's own component walk for bounded faces. The exterior face has
	// one walk per root component.
	Walks []int
	// Bounded reports whether the face is bounded (false only for f0).
	Bounded bool
	// Comp is the owning component for bounded faces; -1 for the
	// exterior face.
	Comp int
	// Label is the face's sign class.
	Label Label
	// Sample is a point strictly inside the face.
	Sample geom.Pt
	// Area2 is twice the enclosed area of the face's primary walk
	// (positive for bounded faces; 0 for the exterior face).
	Area2 rat.R
}

// Component is a connected component of the skeleton (vertices ∪ edges).
// Its members are the vertices and edges stamped with its index (Comp).
type Component struct {
	// OuterWalk is the half-edge starting the component's outer walk.
	OuterWalk int
	// ParentFace is the global face the component sits inside (the
	// exterior face index for root components).
	ParentFace int
	// RootVertex is the component's smallest vertex index.
	RootVertex int
}

// Arrangement is the complete cell complex of an instance.
type Arrangement struct {
	Names    []string
	Verts    []Vertex
	Edges    []Edge
	Half     []HalfEdge
	Faces    []Face
	Comps    []Component
	Exterior int // index of f0 in Faces

	// Pool resolves the Owners handles stored on edges. It is written
	// only while this arrangement is under construction; afterwards it is
	// immutable and safe for concurrent readers. Insert never extends a
	// parent's pool — the derived arrangement gets its own clone.
	Pool *OwnerPool

	// index is the name -> region index map, built on the first
	// RegionIndex lookup.
	index struct {
		once sync.Once
		m    map[string]int
	}

	// Construction caches, filled by both the cold build and Insert and
	// reused by Insert when this arrangement is the parent of an
	// incremental derivation: the face-walk table (walk id per half-edge,
	// signed doubled area and minimal member half-edge per walk) and the
	// primary-walk bounding box per bounded face. walkMin is the walk's
	// identity across generations: a walk untouched by a delta keeps its
	// member half-edge ids, so equal walkMin means equal walk. A
	// multi-shard stitch carries none of them, and Insert refuses it.
	walkOf   []int32
	walkArea []rat.R
	walkMin  []int32
	faceBox  []geom.Box
	bbox     geom.Box // the bounding box of all vertices, on every arrangement

	// scaffold records the ownerless segments this arrangement was built
	// over (BuildWithScaffoldCtx), in input order. Incremental derivation
	// of a scaffolded arrangement is sound only while the scaffold is
	// byte-identical between parent and child — InsertWithScaffoldCtx
	// validates against this and plain Insert refuses scaffolded parents.
	scaffold []geom.Seg

	// loc is the lazily built point-location index (see locate.go).
	loc struct {
		once   sync.Once
		tree   *geom.IntervalIndex
		lo, hi []rat.R // per-edge x-extents the tree was built over
	}

	// prov is the delta provenance of an incrementally derived arrangement
	// (see prov.go); nil for cold builds and after ClearProv.
	prov atomic.Pointer[Provenance]
}

// RegionIndex returns the index of a region name, or -1. The name map is
// built on the first lookup, so an arrangement no name is looked up in,
// such as a stitch only the invariant reads, never builds it.
func (a *Arrangement) RegionIndex(name string) int {
	a.index.once.Do(func() {
		a.index.m = make(map[string]int, len(a.Names))
		for i, n := range a.Names {
			a.index.m[n] = i
		}
	})
	if i, ok := a.index.m[name]; ok {
		return i
	}
	return -1
}

// Stats summarizes cell counts.
func (a *Arrangement) Stats() (v, e, f int) {
	return len(a.Verts), len(a.Edges), len(a.Faces)
}

// Build computes the arrangement of all region boundaries of the instance.
func Build(in *spatial.Instance) (*Arrangement, error) {
	return BuildWithScaffoldCtx(context.Background(), in, nil)
}

// BuildCtx is Build honoring ctx: the construction's hot loops (the
// intersection sweep, face walks, nesting, labeling) poll the context and
// abandon the build with the context's error once it fires, so a canceled
// cold query stops burning CPU instead of running the build to completion.
func BuildCtx(ctx context.Context, in *spatial.Instance) (*Arrangement, error) {
	return BuildWithScaffoldCtx(ctx, in, nil)
}

// BuildWithScaffold computes the arrangement of the region boundaries plus
// additional ownerless "scaffold" segments. Scaffold segments subdivide
// cells without changing any region's extent; they are used by the query
// evaluator to refine the cell complex (finer cells admit more witness
// regions) and by the S-invariant construction of Theorem 6.1.
func BuildWithScaffold(in *spatial.Instance, scaffold []geom.Seg) (*Arrangement, error) {
	return BuildWithScaffoldCtx(context.Background(), in, scaffold)
}

// BuildWithScaffoldCtx is BuildWithScaffold honoring ctx (see BuildCtx).
func BuildWithScaffoldCtx(ctx context.Context, in *spatial.Instance, scaffold []geom.Seg) (*Arrangement, error) {
	// The arrangement owns its names: Instance.Names returns the live
	// slice, which later in-place Adds to in would shift underneath it.
	names := append([]string(nil), in.Names()...)
	if len(names) == 0 {
		return nil, fmt.Errorf("arrange: empty instance")
	}
	if err := checkBudget(len(names)); err != nil {
		return nil, err
	}
	a := &Arrangement{Names: names, Pool: NewOwnerPool()}

	// 1. Collect owned segments plus ownerless scaffold.
	var segs []ownedSeg
	for i, n := range names {
		r := in.MustExt(n)
		own := a.Pool.With(NoOwners, i)
		for _, s := range r.Boundary() {
			segs = append(segs, ownedSeg{s, own})
		}
	}
	for _, s := range scaffold {
		if s.IsDegenerate() {
			return nil, fmt.Errorf("arrange: degenerate scaffold segment at %s", s.A)
		}
		segs = append(segs, ownedSeg{s, NoOwners})
	}
	if len(scaffold) > 0 {
		a.scaffold = append([]geom.Seg(nil), scaffold...)
	}

	// 2. Split at all mutual intersections and deduplicate.
	pieces, err := splitSegments(ctx, a.Pool, segs)
	if err != nil {
		return nil, err
	}

	// 3. Vertices & edges.
	a.buildGraph(pieces)

	// 4. Rotation system.
	a.buildRotation()

	// 5. Components.
	a.buildComponents()

	// 6. Face walks per component; global face merge via nesting.
	if err := a.buildFaces(ctx); err != nil {
		return nil, err
	}

	// 7. Labels.
	if err := a.labelCells(ctx, in); err != nil {
		return nil, err
	}
	return a, nil
}

// canceled wraps a fired context's error so the build's caller sees both
// the arrange origin and (via errors.Is) the underlying context cause.
func canceled(ctx context.Context) error {
	return fmt.Errorf("arrange: build canceled: %w", ctx.Err())
}

type ownedSeg struct {
	s geom.Seg
	o Owners
}

// buildGraph converts split pieces to vertices and edges with half-edges.
func (a *Arrangement) buildGraph(pieces []ownedSeg) {
	vidx := make(map[ptKey]int)
	getV := func(p geom.Pt) int {
		k := keyOfPt(p)
		if i, ok := vidx[k]; ok {
			return i
		}
		i := len(a.Verts)
		vidx[k] = i
		a.Verts = append(a.Verts, Vertex{P: p})
		return i
	}
	for _, ps := range pieces {
		v1, v2 := getV(ps.s.A), getV(ps.s.B)
		e := len(a.Edges)
		h1, h2 := len(a.Half), len(a.Half)+1
		a.Edges = append(a.Edges, Edge{V1: v1, V2: v2, Owners: ps.o, H1: h1, H2: h2})
		a.Half = append(a.Half,
			HalfEdge{Edge: e, Origin: v1, Twin: h2, Next: -1, Face: -1},
			HalfEdge{Edge: e, Origin: v2, Twin: h1, Next: -1, Face: -1},
		)
		a.Verts[v1].Out = append(a.Verts[v1].Out, h1)
		a.Verts[v2].Out = append(a.Verts[v2].Out, h2)
	}
}

// ptKey is a comparable map key for exact points. Coordinates in rat's
// inline representation are keyed by their canonical (num, den) pairs;
// a point with any big-backed coordinate falls back to its canonical
// string in str (empty otherwise). Equal points yield equal keys either
// way — rat normalizes back to the inline form whenever a value fits —
// and the common all-inline case never formats a string.
type ptKey struct {
	xn, xd, yn, yd int64
	str            string
}

func keyOfPt(p geom.Pt) ptKey {
	if xn, xd, ok := p.X.SmallKey(); ok {
		if yn, yd, ok := p.Y.SmallKey(); ok {
			return ptKey{xn: xn, xd: xd, yn: yn, yd: yd}
		}
	}
	return ptKey{str: p.Key()}
}

// dir returns the direction vector of half-edge h from its origin.
func (a *Arrangement) dir(h int) geom.Pt {
	he := a.Half[h]
	e := a.Edges[he.Edge]
	if he.Origin == e.V1 {
		return a.Verts[e.V2].P.Sub(a.Verts[e.V1].P)
	}
	return a.Verts[e.V1].P.Sub(a.Verts[e.V2].P)
}

// Head returns the destination vertex of half-edge h.
func (a *Arrangement) Head(h int) int {
	he := a.Half[h]
	e := a.Edges[he.Edge]
	if he.Origin == e.V1 {
		return e.V2
	}
	return e.V1
}

func (a *Arrangement) buildRotation() {
	for vi := range a.Verts {
		v := &a.Verts[vi]
		// Vertex degrees are tiny (4 for a plain crossing), so an
		// insertion sort beats sort.Slice's per-call reflection setup by
		// a wide margin — and with one arrangement per shard that setup
		// used to run once per vertex per shard. Directions around a
		// vertex are pairwise distinct (edges are interior-disjoint), so
		// any comparison sort yields the same cyclic order.
		out := v.Out
		for i := 1; i < len(out); i++ {
			h := out[i]
			d := a.dir(h)
			j := i - 1
			for j >= 0 && geom.AngleLess(d, a.dir(out[j])) {
				out[j+1] = out[j]
				j--
			}
			out[j+1] = h
		}
	}
	// Next pointers: traversing with the face on the LEFT, the successor
	// of h at its head vertex w is the rotational predecessor of twin(h)
	// in the counterclockwise order around w.
	for vi := range a.Verts {
		out := a.Verts[vi].Out
		for k, h := range out {
			pred := out[(k-1+len(out))%len(out)]
			// twin(pred... we set Next of the half-edge arriving at vi
			// whose twin is h: arriving half-edge = twin(h).
			a.Half[a.Half[h].Twin].Next = pred
		}
	}
}

// buildComponents partitions the skeleton into connected components and
// stamps Comp on every vertex and edge. A union-find over the edges lets
// the smaller root win, so each set's root is its smallest vertex, and the
// components are numbered in order of their roots. Insert runs the same
// pass over a derived complex.
func (a *Arrangement) buildComponents() {
	uf := make([]int32, len(a.Verts))
	for i := range uf {
		uf[i] = int32(i)
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	for ei := range a.Edges {
		r1, r2 := find(int32(a.Edges[ei].V1)), find(int32(a.Edges[ei].V2))
		if r2 < r1 {
			r1, r2 = r2, r1
		}
		uf[r2] = r1
	}
	for vi := range a.Verts {
		if r := find(int32(vi)); int(r) != vi {
			a.Verts[vi].Comp = a.Verts[r].Comp // r < vi: already numbered
			continue
		}
		a.Verts[vi].Comp = len(a.Comps)
		a.Comps = append(a.Comps, Component{RootVertex: vi, ParentFace: -1})
	}
	for ei := range a.Edges {
		a.Edges[ei].Comp = a.Verts[a.Edges[ei].V1].Comp
	}
}
