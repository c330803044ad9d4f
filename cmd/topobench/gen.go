package main

import (
	"fmt"
	"math/rand"
)

// rect is a closed axis-aligned integer rectangle [X1,X2]×[Y1,Y2] with a
// region name. The generators live in this package rather than in
// internal/workload so that the benchmark's inputs cannot change under it.
type rect struct {
	Name           string
	X1, Y1, X2, Y2 int64
}

// The eight 4-intersection relations, spelled as /v1/relate spells them.
const (
	relDisjoint  = "disjoint"
	relMeet      = "meet"
	relEqual     = "equal"
	relOverlap   = "overlap"
	relInside    = "inside"
	relContains  = "contains"
	relCoveredBy = "coveredBy"
	relCovers    = "covers"
)

// relation is the oracle: the 4-intersection relation of a with respect
// to b, computed exactly from the coordinates. For rectangles every case
// reduces to interval comparisons.
func relation(a, b rect) string {
	if a.X2 < b.X1 || b.X2 < a.X1 || a.Y2 < b.Y1 || b.Y2 < a.Y1 {
		return relDisjoint // the closures do not meet
	}
	if !interiorsOverlap(a, b) {
		return relMeet
	}
	if a.X1 == b.X1 && a.X2 == b.X2 && a.Y1 == b.Y1 && a.Y2 == b.Y2 {
		return relEqual
	}
	switch {
	case within(a, b):
		if a.X1 > b.X1 && a.X2 < b.X2 && a.Y1 > b.Y1 && a.Y2 < b.Y2 {
			return relInside
		}
		return relCoveredBy
	case within(b, a):
		if b.X1 > a.X1 && b.X2 < a.X2 && b.Y1 > a.Y1 && b.Y2 < a.Y2 {
			return relContains
		}
		return relCovers
	}
	return relOverlap
}

// within reports a ⊆ b as closed sets.
func within(a, b rect) bool {
	return b.X1 <= a.X1 && a.X2 <= b.X2 && b.Y1 <= a.Y1 && a.Y2 <= b.Y2
}

// interiorsOverlap is the oracle of the cell query
// "some cell r: subset(r, a) and subset(r, b)": a 2-cell lies in both
// regions exactly when their open interiors intersect. Refining the cell
// complex splits cells but never changes this answer.
func interiorsOverlap(a, b rect) bool {
	return a.X1 < b.X2 && b.X1 < a.X2 && a.Y1 < b.Y2 && b.Y1 < a.Y2
}

// cellQuery is the query text whose expected answer interiorsOverlap gives.
func cellQuery(a, b string) string {
	return "some cell r: subset(r, " + a + ") and subset(r, " + b + ")"
}

// metro is a seeded metropolitan mosaic: districts of side×side blocks on
// a square grid, separated by empty belts so that each district is its own
// shard (connected component of the box-overlap graph). Blocks sit at
// pitch 4 and measure 4 or 5 units per side, so neighbours inside a
// district meet or overlap.
type metro struct {
	Rects []rect
	side  int   // blocks per district side
	cols  int   // districts per grid row
	pitch int64 // district pitch: footprint 4·side+1 plus a belt
}

func newMetro(seed int64, n, side int) *metro {
	rng := rand.New(rand.NewSource(seed))
	per := side * side
	districts := (n + per - 1) / per
	m := &metro{side: side, cols: 1, pitch: int64(4*side + 5)}
	for m.cols*m.cols < districts {
		m.cols++
	}
	for d := 0; len(m.Rects) < n; d++ {
		ox, oy := m.origin(d)
		for b := 0; b < per && len(m.Rects) < n; b++ {
			x, y := ox+int64(4*(b%side)), oy+int64(4*(b/side))
			w, h := int64(4+rng.Intn(2)), int64(4+rng.Intn(2))
			m.Rects = append(m.Rects, rect{fmt.Sprintf("M%05d", len(m.Rects)), x, y, x + w, y + h})
		}
	}
	return m
}

func (m *metro) origin(d int) (int64, int64) {
	return int64(d%m.cols) * m.pitch, int64(d/m.cols) * m.pitch
}

// edit draws the i-th added rectangle of an edit stream and the seeded
// neighbour block it is compared against. Even edits land in the empty
// belt right of a district, away from every block (a new shard); odd ones
// overlap the neighbour's district (that shard rebuilds). Both stay inside
// the instance bounding box, and no district in the last grid column is
// chosen, so a belt always lies to its right.
func (m *metro) edit(rng *rand.Rand, name string, i int) (added, nbr rect) {
	per := m.side * m.side
	districts := len(m.Rects) / per // complete districts only
	d := rng.Intn(districts)
	for m.cols > 1 && d%m.cols == m.cols-1 {
		d = rng.Intn(districts)
	}
	nbr = m.Rects[d*per+rng.Intn(per)]
	if i%2 == 0 {
		ox, oy := m.origin(d)
		x := ox + int64(4*m.side) + 2
		y := oy + int64(rng.Intn(4*m.side-1))
		return rect{name, x, y, x + 2, y + 2}, nbr
	}
	x, y := nbr.X1+int64(rng.Intn(3)), nbr.Y1+int64(rng.Intn(3))
	w, h := int64(1+rng.Intn(3)), int64(1+rng.Intn(3))
	return rect{name, x, y, x + w, y + h}, nbr
}

// scatter is a seeded sparse scatter: small rectangles, one per cell of a
// square grid at pitch 14, each at a random size and offset inside its
// cell, so no two interact by accident and every seed yields the same
// amount of geometry. Every eighth rectangle is instead placed against its
// predecessor, in the predecessor's cell, in one of the eight relations in
// turn, so the instance carries a known population of every relation;
// Pairs lists those (predecessor, placed) pairs.
type scatter struct {
	Rects []rect
	Pairs [][2]int
	Box   rect // bounding box of every generated rectangle
}

func newScatter(seed int64, n int) *scatter {
	rng := rand.New(rand.NewSource(seed))
	cols := 1
	for cols*cols < n {
		cols++
	}
	s := &scatter{}
	for i := 0; i < n; i++ {
		var r rect
		if i%8 == 7 {
			r = placeAgainst(s.Rects[i-1], (i/8)%8)
			s.Pairs = append(s.Pairs, [2]int{i - 1, i})
		} else {
			// 3..6 units, inside [2, 10] of the cell: placements against it
			// stay within [1, 14], clear of the neighbouring cells' [16, 24].
			w, h := int64(3+rng.Intn(4)), int64(3+rng.Intn(4))
			x := int64(i%cols)*14 + 2 + rng.Int63n(9-w)
			y := int64(i/cols)*14 + 2 + rng.Int63n(9-h)
			r = rect{"", x, y, x + w, y + h}
		}
		r.Name = fmt.Sprintf("S%04d", i)
		s.Rects = append(s.Rects, r)
	}
	s.Box = s.Rects[0]
	for _, r := range s.Rects[1:] {
		s.Box.X1, s.Box.Y1 = min(s.Box.X1, r.X1), min(s.Box.Y1, r.Y1)
		s.Box.X2, s.Box.Y2 = max(s.Box.X2, r.X2), max(s.Box.Y2, r.Y2)
	}
	return s
}

// placeAgainst returns a rectangle in relation k (in the order of the
// relation constants) to p; p is at least 3 units on each side.
func placeAgainst(p rect, k int) rect {
	switch k {
	case 0: // disjoint, two units to the right
		return rect{"", p.X2 + 2, p.Y1, p.X2 + 4, p.Y2}
	case 1: // meet along p's right side
		return rect{"", p.X2, p.Y1, p.X2 + 2, p.Y2}
	case 2: // equal
		return p
	case 3: // overlap across p's right side
		return rect{"", p.X2 - 1, p.Y1 + 1, p.X2 + 2, p.Y2 + 1}
	case 4: // inside
		return rect{"", p.X1 + 1, p.Y1 + 1, p.X2 - 1, p.Y2 - 1}
	case 5: // contains
		return rect{"", p.X1 - 1, p.Y1 - 1, p.X2 + 1, p.Y2 + 1}
	case 6: // covered by: shares p's left side
		return rect{"", p.X1, p.Y1 + 1, p.X2 - 1, p.Y2 - 1}
	default: // covers: shares p's left side
		return rect{"", p.X1, p.Y1 - 1, p.X2 + 1, p.Y2 + 1}
	}
}

// edit draws an added rectangle strictly inside the bounding box: a box
// that grew would move the refinement scaffold and force the refined
// universe cold.
func (s *scatter) edit(rng *rand.Rand, name string) rect {
	w, h := int64(2+rng.Intn(5)), int64(2+rng.Intn(5))
	x := s.Box.X1 + 1 + rng.Int63n(s.Box.X2-s.Box.X1-w-2)
	y := s.Box.Y1 + 1 + rng.Int63n(s.Box.Y2-s.Box.Y1-h-2)
	return rect{name, x, y, x + w, y + h}
}
