// Package geom is an exact 2-D computational-geometry kernel built on
// internal/rat. Every predicate (orientation, incidence, intersection)
// is decided with exact rational arithmetic, so the planar arrangements
// constructed on top of this package are combinatorially correct — the
// property the paper's topological invariant depends on.
package geom

import (
	"fmt"

	"topodb/internal/rat"
)

// Pt is a point in the rational plane Q².
type Pt struct {
	X, Y rat.R
}

// P builds a point from int64 coordinates.
func P(x, y int64) Pt { return Pt{rat.FromInt(x), rat.FromInt(y)} }

// PFrac builds a point from two fractions.
func PFrac(xn, xd, yn, yd int64) Pt {
	return Pt{rat.FromFrac(xn, xd), rat.FromFrac(yn, yd)}
}

// Equal reports coordinate-wise equality.
func (p Pt) Equal(q Pt) bool { return p.X.Equal(q.X) && p.Y.Equal(q.Y) }

// Cmp orders points lexicographically by (X, Y); used for canonical keys.
func (p Pt) Cmp(q Pt) int {
	if c := p.X.Cmp(q.X); c != 0 {
		return c
	}
	return p.Y.Cmp(q.Y)
}

// Key returns a canonical map key for the point.
func (p Pt) Key() string { return p.X.Key() + "," + p.Y.Key() }

func (p Pt) String() string { return fmt.Sprintf("(%s, %s)", p.X, p.Y) }

// Sub returns the vector p - q.
func (p Pt) Sub(q Pt) Pt { return Pt{p.X.Sub(q.X), p.Y.Sub(q.Y)} }

// Add returns p + q (as vectors).
func (p Pt) Add(q Pt) Pt { return Pt{p.X.Add(q.X), p.Y.Add(q.Y)} }

// Scale returns the vector p scaled by t.
func (p Pt) Scale(t rat.R) Pt { return Pt{p.X.Mul(t), p.Y.Mul(t)} }

// Mid returns the midpoint of p and q.
func Mid(p, q Pt) Pt { return Pt{rat.Mid(p.X, q.X), rat.Mid(p.Y, q.Y)} }

// Lerp returns p + t*(q-p).
func Lerp(p, q Pt, t rat.R) Pt { return p.Add(q.Sub(p).Scale(t)) }

// Cross returns the 2-D cross product (p × q) of two vectors.
func Cross(p, q Pt) rat.R { return p.X.Mul(q.Y).Sub(p.Y.Mul(q.X)) }

// Orient returns the orientation of the ordered triple (a, b, c):
// +1 if counterclockwise (c left of a→b), -1 if clockwise, 0 if collinear.
// Integer-coordinate inputs are decided by the fused 128-bit fast path
// (see predicates.go); everything else takes the exact rational route.
func Orient(a, b, c Pt) int {
	if s, ok := crossSignFast(a, b, c); ok {
		return s
	}
	return Cross(b.Sub(a), c.Sub(a)).Sign()
}

// OnSegment reports whether p lies on the closed segment [a, b]
// (including endpoints). a and b may coincide.
func OnSegment(p, a, b Pt) bool {
	if Orient(a, b, p) != 0 {
		return false
	}
	// p collinear with a,b: check the box.
	return rat.Min(a.X, b.X).LessEq(p.X) && p.X.LessEq(rat.Max(a.X, b.X)) &&
		rat.Min(a.Y, b.Y).LessEq(p.Y) && p.Y.LessEq(rat.Max(a.Y, b.Y))
}

// Seg is a closed line segment from A to B. A degenerate segment (A == B)
// is permitted by the type but rejected by arrangement construction.
type Seg struct {
	A, B Pt
}

func (s Seg) String() string { return fmt.Sprintf("[%s %s]", s.A, s.B) }

// IsDegenerate reports whether the segment has zero length.
func (s Seg) IsDegenerate() bool { return s.A.Equal(s.B) }

// Reverse returns the segment with endpoints swapped.
func (s Seg) Reverse() Seg { return Seg{s.B, s.A} }

// Contains reports whether p lies on the closed segment.
func (s Seg) Contains(p Pt) bool { return OnSegment(p, s.A, s.B) }

// Box is an axis-aligned bounding box [MinX,MaxX] × [MinY,MaxY].
type Box struct {
	MinX, MinY, MaxX, MaxY rat.R
}

// BoxOf returns the bounding box of the given points; it panics on empty input.
func BoxOf(pts ...Pt) Box {
	if len(pts) == 0 {
		panic("geom: BoxOf of no points")
	}
	b := Box{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		b.MinX = rat.Min(b.MinX, p.X)
		b.MinY = rat.Min(b.MinY, p.Y)
		b.MaxX = rat.Max(b.MaxX, p.X)
		b.MaxY = rat.Max(b.MaxY, p.Y)
	}
	return b
}

// Union returns the smallest box containing both b and c.
func (b Box) Union(c Box) Box {
	return Box{
		rat.Min(b.MinX, c.MinX), rat.Min(b.MinY, c.MinY),
		rat.Max(b.MaxX, c.MaxX), rat.Max(b.MaxY, c.MaxY),
	}
}

// Intersects reports whether the closed boxes overlap.
func (b Box) Intersects(c Box) bool {
	return b.MinX.LessEq(c.MaxX) && c.MinX.LessEq(b.MaxX) &&
		b.MinY.LessEq(c.MaxY) && c.MinY.LessEq(b.MaxY)
}

// ContainsPt reports whether the closed box contains p.
func (b Box) ContainsPt(p Pt) bool {
	return b.MinX.LessEq(p.X) && p.X.LessEq(b.MaxX) &&
		b.MinY.LessEq(p.Y) && p.Y.LessEq(b.MaxY)
}

// SegBox returns the bounding box of a segment. It avoids the variadic
// BoxOf: arrangement construction computes a box per segment (and the
// quadratic reference path one per pair), and the variadic slice escapes
// on every call.
func SegBox(s Seg) Box {
	b := Box{s.A.X, s.A.Y, s.A.X, s.A.Y}
	b.MinX = rat.Min(b.MinX, s.B.X)
	b.MinY = rat.Min(b.MinY, s.B.Y)
	b.MaxX = rat.Max(b.MaxX, s.B.X)
	b.MaxY = rat.Max(b.MaxY, s.B.Y)
	return b
}

// IntersectKind classifies the intersection of two segments.
type IntersectKind int

const (
	// NoIntersection: the closed segments are disjoint.
	NoIntersection IntersectKind = iota
	// PointIntersection: they meet in exactly one point (P).
	PointIntersection
	// OverlapIntersection: they share a nondegenerate collinear
	// subsegment [P, Q].
	OverlapIntersection
)

// Intersection describes how two segments meet.
type Intersection struct {
	Kind IntersectKind
	P, Q Pt // P for point; [P,Q] for overlap
}

// Intersect computes the exact intersection of two closed segments.
func Intersect(s, t Seg) Intersection {
	if !SegBox(s).Intersects(SegBox(t)) {
		return Intersection{Kind: NoIntersection}
	}
	return IntersectPrefiltered(s, t)
}

// IntersectPrefiltered is Intersect without the bounding-box fast-reject.
// The box test in Intersect is purely a filter — the parameter-range and
// interval-overlap checks below are complete on their own — so callers
// that have already established box overlap (the sweep in
// internal/arrange keeps precomputed boxes) skip recomputing it.
func IntersectPrefiltered(s, t Seg) Intersection {
	// Axis-aligned fast path: rectilinear inputs (every box workload, and
	// most GIS data) resolve with coordinate comparisons alone — no
	// cross products, no division. The results are the exact values the
	// generic path below would produce, in the same canonical rational
	// representation, so outputs are byte-identical.
	sv := s.A.X.Equal(s.B.X) && !s.A.Y.Equal(s.B.Y)
	sh := s.A.Y.Equal(s.B.Y) && !s.A.X.Equal(s.B.X)
	tv := t.A.X.Equal(t.B.X) && !t.A.Y.Equal(t.B.Y)
	th := t.A.Y.Equal(t.B.Y) && !t.A.X.Equal(t.B.X)
	switch {
	case sv && tv:
		if !s.A.X.Equal(t.A.X) {
			return Intersection{Kind: NoIntersection}
		}
		return overlap1D(s.A.X, s.A.Y, s.B.Y, t.A.Y, t.B.Y, true)
	case sh && th:
		if !s.A.Y.Equal(t.A.Y) {
			return Intersection{Kind: NoIntersection}
		}
		return overlap1D(s.A.Y, s.A.X, s.B.X, t.A.X, t.B.X, false)
	case sv && th:
		return crossVH(s, t)
	case sh && tv:
		return crossVH(t, s)
	}
	d1 := s.B.Sub(s.A)
	d2 := t.B.Sub(t.A)
	denom := Cross(d1, d2)
	if denom.Sign() != 0 {
		// Proper (non-parallel) case: solve s.A + u*d1 == t.A + v*d2.
		diff := t.A.Sub(s.A)
		u := Cross(diff, d2).Div(denom)
		v := Cross(diff, d1).Div(denom)
		if u.Sign() < 0 || rat.One.Less(u) || v.Sign() < 0 || rat.One.Less(v) {
			return Intersection{Kind: NoIntersection}
		}
		return Intersection{Kind: PointIntersection, P: Lerp(s.A, s.B, u)}
	}
	// Parallel. Collinear?
	if Orient(s.A, s.B, t.A) != 0 {
		return Intersection{Kind: NoIntersection}
	}
	// Collinear: order all four endpoints along the line and take the
	// overlap of the two parameter intervals.
	lo1, hi1 := orderAlong(s.A, s.B)
	lo2, hi2 := orderAlong(t.A, t.B)
	lo := maxPt(lo1, lo2)
	hi := minPt(hi1, hi2)
	switch lo.Cmp(hi) {
	case 1:
		return Intersection{Kind: NoIntersection}
	case 0:
		return Intersection{Kind: PointIntersection, P: lo}
	default:
		return Intersection{Kind: OverlapIntersection, P: lo, Q: hi}
	}
}

// overlap1D intersects two collinear axis-parallel segments sharing the
// fixed coordinate c: [a1,b1] and [a2,b2] are their ranges along the
// varying axis (vertical=true means the varying axis is y). The interval
// endpoints are ordered exactly as the generic collinear branch orders
// points along the line, so the reported P/Q match it byte for byte.
func overlap1D(c, a1, b1, a2, b2 rat.R, vertical bool) Intersection {
	if b1.Less(a1) {
		a1, b1 = b1, a1
	}
	if b2.Less(a2) {
		a2, b2 = b2, a2
	}
	lo := rat.Max(a1, a2)
	hi := rat.Min(b1, b2)
	mk := func(v rat.R) Pt {
		if vertical {
			return Pt{X: c, Y: v}
		}
		return Pt{X: v, Y: c}
	}
	switch lo.Cmp(hi) {
	case 1:
		return Intersection{Kind: NoIntersection}
	case 0:
		return Intersection{Kind: PointIntersection, P: mk(lo)}
	default:
		return Intersection{Kind: OverlapIntersection, P: mk(lo), Q: mk(hi)}
	}
}

// crossVH intersects a vertical segment v with a horizontal segment h:
// they meet iff v's x lies in h's x-range and h's y lies in v's y-range,
// and then exactly at that coordinate pair.
func crossVH(v, h Seg) Intersection {
	x, y := v.A.X, h.A.Y
	xlo, xhi := h.A.X, h.B.X
	if xhi.Less(xlo) {
		xlo, xhi = xhi, xlo
	}
	ylo, yhi := v.A.Y, v.B.Y
	if yhi.Less(ylo) {
		ylo, yhi = yhi, ylo
	}
	if x.Less(xlo) || xhi.Less(x) || y.Less(ylo) || yhi.Less(y) {
		return Intersection{Kind: NoIntersection}
	}
	return Intersection{Kind: PointIntersection, P: Pt{X: x, Y: y}}
}

func orderAlong(a, b Pt) (lo, hi Pt) {
	if a.Cmp(b) <= 0 {
		return a, b
	}
	return b, a
}

func maxPt(a, b Pt) Pt {
	if a.Cmp(b) >= 0 {
		return a
	}
	return b
}

func minPt(a, b Pt) Pt {
	if a.Cmp(b) <= 0 {
		return a
	}
	return b
}

// AngleLess orders direction vectors counterclockwise starting from the
// positive x-axis, i.e. it reports whether the ray direction u comes
// strictly before v in the cyclic order [0, 2π). Both must be nonzero.
// Collinear equal directions compare equal (returns false both ways).
func AngleLess(u, v Pt) bool {
	hu, hv := halfPlane(u), halfPlane(v)
	if hu != hv {
		return hu < hv
	}
	return CrossSign(u, v) > 0
}

// AngleCmp is the three-way version of AngleLess: -1 if u comes before v
// in counterclockwise order from the positive x-axis, +1 if after, 0 if
// the directions coincide.
func AngleCmp(u, v Pt) int {
	hu, hv := halfPlane(u), halfPlane(v)
	if hu != hv {
		if hu < hv {
			return -1
		}
		return 1
	}
	switch CrossSign(u, v) {
	case 1:
		return -1
	case -1:
		return 1
	}
	return 0
}

// halfPlane returns 0 for directions with angle in [0, π) — i.e. y > 0, or
// y == 0 && x > 0 — and 1 for [π, 2π). The zero vector panics.
func halfPlane(u Pt) int {
	ys := u.Y.Sign()
	xs := u.X.Sign()
	if ys == 0 && xs == 0 {
		panic("geom: zero direction vector")
	}
	if ys > 0 || (ys == 0 && xs > 0) {
		return 0
	}
	return 1
}
