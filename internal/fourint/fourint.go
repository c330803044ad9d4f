// Package fourint implements Egenhofer's 4-intersection topological
// relations between pairs of regions (§2 of the paper, Fig 2): the eight
// mutually exclusive relations — disjoint, meet, equal, overlap, inside,
// contains, covers, coveredBy — derived from the emptiness pattern of the
// four sets A°∩B°, A°∩∂B, ∂A∩B°, ∂A∩∂B.
//
// The relations are computed exactly from the planar arrangement: the four
// intersections are nonempty iff suitable labeled cells exist, so the
// classification inherits the arrangement's exactness.
package fourint

import (
	"fmt"

	"topodb/internal/arrange"
	"topodb/internal/geom"
	"topodb/internal/par"
	"topodb/internal/spatial"
)

// Relation is one of the eight 4-intersection relations.
type Relation int

const (
	Disjoint Relation = iota
	Meet
	Equal
	Overlap
	Inside    // A inside B (A ⊂ B°, boundaries disjoint)
	Contains  // B inside A
	CoveredBy // A ⊆ B, boundaries share points
	Covers    // B ⊆ A, boundaries share points
)

var relNames = [...]string{
	"disjoint", "meet", "equal", "overlap",
	"inside", "contains", "coveredBy", "covers",
}

func (r Relation) String() string {
	if r < 0 || int(r) >= len(relNames) {
		return "?"
	}
	return relNames[r]
}

// Inverse returns the relation of (B, A) given that of (A, B).
func (r Relation) Inverse() Relation {
	switch r {
	case Inside:
		return Contains
	case Contains:
		return Inside
	case CoveredBy:
		return Covers
	case Covers:
		return CoveredBy
	}
	return r
}

// Matrix is the 4-intersection emptiness pattern.
type Matrix struct {
	II bool // A° ∩ B° nonempty
	IB bool // A° ∩ ∂B nonempty
	BI bool // ∂A ∩ B° nonempty
	BB bool // ∂A ∩ ∂B nonempty
}

// String renders the matrix as the paper's 2x2 pattern, e.g. "¬∅ ∅ / ∅ ¬∅".
func (m Matrix) String() string {
	f := func(b bool) string {
		if b {
			return "¬∅"
		}
		return "∅"
	}
	return fmt.Sprintf("[%s %s; %s %s]", f(m.II), f(m.IB), f(m.BI), f(m.BB))
}

// Classify maps an emptiness matrix to its relation. Only 8 of the 16
// patterns are realizable for discs (§2); unrealizable patterns return an
// error.
func Classify(m Matrix) (Relation, error) {
	switch m {
	case Matrix{false, false, false, false}:
		return Disjoint, nil
	case Matrix{false, false, false, true}:
		return Meet, nil
	case Matrix{true, false, false, true}:
		return Equal, nil
	case Matrix{true, true, true, true}:
		return Overlap, nil
	case Matrix{true, false, true, false}:
		return Inside, nil
	case Matrix{true, true, false, false}:
		return Contains, nil
	case Matrix{true, false, true, true}:
		return CoveredBy, nil
	case Matrix{true, true, false, true}:
		return Covers, nil
	}
	return 0, fmt.Errorf("fourint: matrix %s is not realizable for discs", m)
}

// MatrixOf computes the 4-intersection matrix of regions i and j from an
// arrangement containing both: one pass over the cells, reading each
// label's few non-Exterior entries.
func MatrixOf(a *arrange.Arrangement, i, j int) Matrix {
	var m Matrix
	for fi := range a.Faces {
		if si, sj := signsOf(a.Faces[fi].Label, i, j); si == arrange.Interior && sj == arrange.Interior {
			m.II = true
		}
	}
	for ei := range a.Edges {
		switch si, sj := signsOf(a.Edges[ei].Label, i, j); {
		case si == arrange.Interior && sj == arrange.Boundary:
			m.IB = true
		case si == arrange.Boundary && sj == arrange.Interior:
			m.BI = true
		case si == arrange.Boundary && sj == arrange.Boundary:
			m.BB = true
		}
	}
	for vi := range a.Verts {
		if si, sj := signsOf(a.Verts[vi].Label, i, j); si == arrange.Boundary && sj == arrange.Boundary {
			m.BB = true
		}
	}
	return m
}

// signsOf returns a label's signs for regions i and j.
func signsOf(l arrange.Label, i, j int) (si, sj arrange.Sign) {
	for k := 0; k < l.NumEntries(); k++ {
		ri, s := l.Entry(k)
		if ri == i {
			si = s
		}
		if ri == j {
			sj = s
		}
	}
	return si, sj
}

// Relate classifies the relation between two named regions of an instance.
func Relate(in *spatial.Instance, nameA, nameB string) (Relation, error) {
	sub := spatial.New()
	ra, ok := in.Ext(nameA)
	if !ok {
		return 0, fmt.Errorf("fourint: no region %q", nameA)
	}
	rb, ok := in.Ext(nameB)
	if !ok {
		return 0, fmt.Errorf("fourint: no region %q", nameB)
	}
	if err := sub.Add(nameA, ra); err != nil {
		return 0, err
	}
	if err := sub.Add(nameB, rb); err != nil {
		return 0, err
	}
	a, err := arrange.Build(sub)
	if err != nil {
		return 0, err
	}
	return Classify(MatrixOf(a, a.RegionIndex(nameA), a.RegionIndex(nameB)))
}

// AllPairs computes the relation for every ordered pair of distinct region
// names from a single arrangement of the full instance. Region bounding
// boxes come straight from the instance, so box-disjoint pairs skip the
// 4-intersection machinery entirely.
func AllPairs(in *spatial.Instance) (map[[2]string]Relation, error) {
	a, err := arrange.Build(in)
	if err != nil {
		return nil, err
	}
	return AllPairsFromBoxes(a, in.Boxes())
}

// AllPairsFromBoxes computes the relation for every ordered pair of
// distinct region names from an existing arrangement. boxes must hold the
// per-region bounding boxes indexed like a.Names (spatial.Instance.Boxes).
// Pairs with disjoint boxes are Disjoint by construction — every cell of
// either region lives inside its box — and skip the O(cells) matrix scan;
// the common case in scatter and grid workloads.
func AllPairsFromBoxes(a *arrange.Arrangement, boxes []geom.Box) (map[[2]string]Relation, error) {
	return allPairs(a.Names, boxes, func(i, j int) Matrix { return MatrixOf(a, i, j) })
}

// allPairs is the one pair loop behind every relation table. For each
// unordered pair (i, j) of names, i < j: a box-disjoint pair is Disjoint;
// every other pair is classified by matrix on a bounded worker pool. Each
// pair is classified once — the reverse direction is its Inverse — and
// results merge in pair order, so the output (and the first reported
// error) is deterministic regardless of scheduling.
func allPairs(names []string, boxes []geom.Box, matrix func(i, j int) Matrix) (map[[2]string]Relation, error) {
	n := len(names)
	if len(boxes) != n {
		return nil, fmt.Errorf("fourint: %d boxes for %d regions", len(boxes), n)
	}
	out := make(map[[2]string]Relation, n*(n-1))
	set := func(i, j int, r Relation) {
		out[[2]string{names[i], names[j]}] = r
		out[[2]string{names[j], names[i]}] = r.Inverse()
	}
	type pair struct{ i, j int }
	var pairs []pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if boxes[i].Intersects(boxes[j]) {
				pairs = append(pairs, pair{i, j})
			} else {
				set(i, j, Disjoint)
			}
		}
	}
	rels := make([]Relation, len(pairs))
	errs := make([]error, len(pairs))
	par.For(len(pairs), func(k int) {
		rels[k], errs[k] = Classify(matrix(pairs[k].i, pairs[k].j))
	})
	for k, p := range pairs {
		if errs[k] != nil {
			return nil, fmt.Errorf("fourint: %s vs %s: %w", names[p.i], names[p.j], errs[k])
		}
		set(p.i, p.j, rels[k])
	}
	return out, nil
}

// EquivalentInstances reports whether two instances over the same names are
// 4-intersection equivalent (§2): every pair of regions stands in the same
// relation in both.
func EquivalentInstances(a, b *spatial.Instance) (bool, error) {
	if !a.SameNames(b) {
		return false, nil
	}
	ra, err := AllPairs(a)
	if err != nil {
		return false, err
	}
	rb, err := AllPairs(b)
	if err != nil {
		return false, err
	}
	for k, v := range ra {
		if rb[k] != v {
			return false, nil
		}
	}
	return true, nil
}
