package geom

import (
	"fmt"

	"topodb/internal/rat"
)

// Ring is a closed polygonal curve given by its vertex cycle; the edge from
// the last vertex back to the first is implicit. Rings are the boundary
// representation used for every region class in this repository (the paper's
// Theorem 3.5 justifies polygonal boundaries for topological purposes).
type Ring []Pt

// Edges returns the n closed edges of the ring.
func (r Ring) Edges() []Seg {
	n := len(r)
	out := make([]Seg, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Seg{r[i], r[(i+1)%n]})
	}
	return out
}

// SignedArea2 returns twice the signed area of the ring
// (positive for counterclockwise orientation).
func (r Ring) SignedArea2() rat.R {
	sum := rat.Zero
	n := len(r)
	for i := 0; i < n; i++ {
		sum = sum.Add(Cross(r[i], r[(i+1)%n]))
	}
	return sum
}

// IsCCW reports whether the ring is counterclockwise oriented.
// It panics on zero-area rings.
func (r Ring) IsCCW() bool {
	s := r.SignedArea2().Sign()
	if s == 0 {
		panic("geom: zero-area ring has no orientation")
	}
	return s > 0
}

// Reverse returns the ring traversed in the opposite direction.
func (r Ring) Reverse() Ring {
	out := make(Ring, len(r))
	for i, p := range r {
		out[len(r)-1-i] = p
	}
	return out
}

// Canonicalize returns an equal ring rotated so that the lexicographically
// smallest vertex comes first; useful for golden tests.
func (r Ring) Canonicalize() Ring {
	if len(r) == 0 {
		return r
	}
	best := 0
	for i := 1; i < len(r); i++ {
		if r[i].Cmp(r[best]) < 0 {
			best = i
		}
	}
	out := make(Ring, 0, len(r))
	out = append(out, r[best:]...)
	out = append(out, r[:best]...)
	return out
}

// Validate checks that the ring is a simple polygon: at least 3 vertices,
// no repeated vertices, no zero-length or collinear-degenerate edges, and
// no two edges intersecting except adjacent edges at their shared vertex.
func (r Ring) Validate() error {
	n := len(r)
	if n < 3 {
		return fmt.Errorf("geom: ring needs >= 3 vertices, got %d", n)
	}
	seen := make(map[string]int, n)
	for i, p := range r {
		if j, dup := seen[p.Key()]; dup {
			return fmt.Errorf("geom: ring repeats vertex %s at %d and %d", p, j, i)
		}
		seen[p.Key()] = i
	}
	edges := r.Edges()
	for _, e := range edges {
		if e.IsDegenerate() {
			return fmt.Errorf("geom: degenerate edge at %s", e.A)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			inter := Intersect(edges[i], edges[j])
			if inter.Kind == NoIntersection {
				continue
			}
			adjacent := j == i+1 || (i == 0 && j == n-1)
			if adjacent {
				if inter.Kind == OverlapIntersection {
					return fmt.Errorf("geom: edges %d and %d overlap", i, j)
				}
				// Adjacent edges must meet only at the shared vertex.
				shared := edges[i].B
				if i == 0 && j == n-1 {
					shared = edges[i].A
				}
				if !inter.P.Equal(shared) {
					return fmt.Errorf("geom: adjacent edges %d,%d cross at %s", i, j, inter.P)
				}
				continue
			}
			return fmt.Errorf("geom: nonadjacent edges %d and %d intersect", i, j)
		}
	}
	if r.SignedArea2().Sign() == 0 {
		return fmt.Errorf("geom: ring has zero area")
	}
	return nil
}

// PointLocation classifies a point against a region boundary.
type PointLocation int

const (
	// Outside the region.
	Outside PointLocation = iota
	// OnBoundary of the region.
	OnBoundary
	// Inside the region.
	Inside
)

func (l PointLocation) String() string {
	switch l {
	case Outside:
		return "outside"
	case OnBoundary:
		return "boundary"
	case Inside:
		return "inside"
	}
	return "?"
}

// RingContains classifies p against the single ring r by the exact
// even–odd ray-casting rule, with a ray in the +x direction. Rays through
// vertices are handled by the half-open convention: an edge counts when
// the horizontal line through p meets it at or above its lower endpoint
// and strictly below its upper one, with p strictly left of it;
// horizontal edges never count. Even–odd semantics match the paper's
// regions because every region class supported has a boundary that is a
// closed curve separating a simply connected interior from the exterior.
// It walks the vertex cycle directly without materializing an edge list:
// cell labeling calls it once per (cell, region) pair.
func RingContains(r Ring, p Pt) PointLocation {
	inside := false
	n := len(r)
	for i := 0; i < n; i++ {
		a, b := r[i], r[(i+1)%n]
		if OnSegment(p, a, b) {
			return OnBoundary
		}
		switch a.Y.Cmp(b.Y) {
		case 0:
			continue // horizontal edges never counted (p not on them here)
		case 1:
			a, b = b, a
		}
		// Count if a.Y <= p.Y < b.Y and p is strictly left of the edge.
		if a.Y.LessEq(p.Y) && p.Y.Less(b.Y) && Orient(a, b, p) > 0 {
			inside = !inside
		}
	}
	if inside {
		return Inside
	}
	return Outside
}
