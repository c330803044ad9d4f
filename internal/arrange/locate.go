package arrange

import (
	"fmt"

	"topodb/internal/geom"
	"topodb/internal/rat"
)

// CellKind classifies the cell a located point lies in.
type CellKind int8

const (
	// LocFace: the point lies strictly inside a face (2-cell).
	LocFace CellKind = iota
	// LocEdge: the point lies in the relative interior of an edge.
	LocEdge
	// LocVertex: the point coincides with a vertex.
	LocVertex
)

// Loc is the result of point location: which cell of the arrangement a
// query point lies in.
type Loc struct {
	Kind  CellKind
	Index int
}

// ensureLocIndex builds the persistent point-location index exactly once
// per arrangement: an x-interval tree over the edges' x-extents. Every
// Locate/FaceOfPoint stab then touches only the edges whose x-interval
// contains the query abscissa — O(log E + candidates) instead of the full
// edge and face scan. Safe for concurrent use.
func (a *Arrangement) ensureLocIndex() {
	a.loc.once.Do(func() {
		lo := make([]rat.R, len(a.Edges))
		hi := make([]rat.R, len(a.Edges))
		for ei := range a.Edges {
			e := &a.Edges[ei]
			x1, x2 := a.Verts[e.V1].P.X, a.Verts[e.V2].P.X
			if x2.Less(x1) {
				x1, x2 = x2, x1
			}
			lo[ei], hi[ei] = x1, x2
		}
		a.loc.lo, a.loc.hi = lo, hi
		a.loc.tree = geom.NewIntervalIndex(lo, hi)
	})
}

// Locate returns the cell of the arrangement containing p: the vertex p
// coincides with, the edge whose relative interior holds p, or the face p
// lies strictly inside. Face identification casts an upward ray along the
// symbolically perturbed vertical line x = p.X + ε: an edge with endpoints
// a, b (a.X < b.X) crosses that line iff a.X ≤ p.X < b.X (vertical edges
// never do), ties between crossings through one shared vertex are broken
// by slope, and the face below the lowest crossing above p — the left face
// of the crossing edge's leftward half-edge — is the answer. With no
// crossing above p the point lies in the exterior face. All decisions are
// exact rational arithmetic on the index's candidate set only.
func (a *Arrangement) Locate(p geom.Pt) Loc {
	a.ensureLocIndex()
	cands := a.loc.tree.Stab(p.X, a.loc.lo, a.loc.hi, nil)

	// Incidence: only edges whose x-interval contains p.X can hold p.
	for _, ei := range cands {
		e := &a.Edges[ei]
		pa, pb := a.Verts[e.V1].P, a.Verts[e.V2].P
		if (geom.Seg{A: pa, B: pb}).Contains(p) {
			if p.Equal(pa) {
				return Loc{LocVertex, e.V1}
			}
			if p.Equal(pb) {
				return Loc{LocVertex, e.V2}
			}
			return Loc{LocEdge, int(ei)}
		}
	}

	// Upward ray on the perturbed line.
	best := -1
	var bestY, bestSlope rat.R
	for _, ei := range cands {
		e := &a.Edges[ei]
		pa, pb := a.Verts[e.V1].P, a.Verts[e.V2].P
		if pb.X.Less(pa.X) {
			pa, pb = pb, pa
		}
		if !pa.X.LessEq(p.X) || !p.X.Less(pb.X) {
			continue // half-open spanning rule; excludes vertical edges
		}
		slope := pb.Y.Sub(pa.Y).Div(pb.X.Sub(pa.X))
		yAt := pa.Y.Add(slope.Mul(p.X.Sub(pa.X)))
		// p is not on the skeleton here, so yAt == p.Y cannot happen for a
		// spanning edge; strict comparison keeps only crossings above p.
		if !p.Y.Less(yAt) {
			continue
		}
		if best == -1 || yAt.Less(bestY) ||
			(yAt.Equal(bestY) && slope.Less(bestSlope)) {
			best, bestY, bestSlope = int(ei), yAt, slope
		}
	}
	if best == -1 {
		return Loc{LocFace, a.Exterior}
	}
	e := &a.Edges[best]
	// The face just below a non-vertical edge is the left face of its
	// leftward-directed (decreasing-x) half-edge.
	h := e.H2
	if a.Verts[e.V2].P.X.Less(a.Verts[e.V1].P.X) {
		h = e.H1
	}
	return Loc{LocFace, a.Half[h].Face}
}

// FaceOfPoint returns the index of the face containing p, or an error if p
// lies on the skeleton. Queries go through the arrangement's persistent
// x-interval point-location index (built on first use, then shared), so
// repeated stabs cost O(log E + candidates). The tests check it against a
// linear edge/face scan.
func (a *Arrangement) FaceOfPoint(p geom.Pt) (int, error) {
	l := a.Locate(p)
	if l.Kind != LocFace {
		return 0, fmt.Errorf("arrange: point %s lies on the skeleton", p)
	}
	return l.Index, nil
}
