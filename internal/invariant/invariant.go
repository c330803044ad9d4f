// Package invariant implements the paper's topological invariant (§3):
// T_I = (V, E, δ, f0, l, O). Starting from the exact arrangement of the
// region boundaries, it produces the *maximal* cell complex by dissolving
// every vertex of degree 2 whose two incident edges lie on the boundaries
// of exactly the same regions — this is what turns a polygonal
// approximation of a smooth disc into the paper's cells (e.g. a lone square
// becomes "no vertices, one edge, two faces", the degenerate case discussed
// after Lemma 3.2).
//
// The invariant carries the rotation system (the paper's orientation
// relation O), the labeling l of every cell with its sign class, the
// distinguished exterior face f0, and the nesting forest of connected
// components. Equivalence of invariants — and hence, by Theorem 3.4,
// topological equivalence of instances — is decided via a canonical form:
// a lexicographically minimal rotation-system traversal, minimized over
// starting edge-ends and over the two global orientations (a homeomorphism
// of the plane is isotopic to the identity or to a reflection, and its
// chirality must be consistent across components).
package invariant

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"topodb/internal/arrange"
	"topodb/internal/spatial"
)

// End identifies one end of an edge: Side 0 is the V1 end, Side 1 the V2
// end. Loops at a vertex occur as two distinct ends.
type End struct {
	Edge int
	Side int
}

// Vert is a 0-cell of the invariant.
type Vert struct {
	Label arrange.Label
	// Rot is the counterclockwise rotation of edge-ends around the
	// vertex — the paper's relation O.
	Rot  []End
	Comp int
}

// Edge is a 1-cell: a maximal boundary arc between two vertices. V1 == V2
// for a loop; V1 == V2 == -1 for a closed curve with no vertices on it
// (the paper's degenerate one-region case).
type Edge struct {
	V1, V2 int
	Owners arrange.Owners
	Label  arrange.Label
	Comp   int
	// FL and FR are the faces to the left and right when the edge is
	// traversed from the V1 end to the V2 end (for closed edges: in the
	// stored arrangement direction).
	FL, FR int
}

// IsClosed reports whether the edge is a vertex-free closed curve.
func (e Edge) IsClosed() bool { return e.V1 == -1 }

// IsLoop reports whether the edge is a loop at a single vertex.
func (e Edge) IsLoop() bool { return e.V1 >= 0 && e.V1 == e.V2 }

// Face is a 2-cell.
type Face struct {
	Label   arrange.Label
	Bounded bool
	Comp    int   // owning component; -1 for the exterior face
	Edges   []int // incident invariant edges
	// Children lists the components nested directly inside this face.
	Children []int
}

// Comp is a connected component of the skeleton.
type Comp struct {
	Verts      []int
	Edges      []int
	ParentFace int
	Depth      int
}

// T is the topological invariant of a spatial instance.
type T struct {
	Names    []string
	Verts    []Vert
	Edges    []Edge
	Faces    []Face
	Comps    []Comp
	Exterior int

	// Pool resolves the Owners handles on Edges (shared read-only with the
	// source arrangement; handles from different pools are not comparable).
	Pool *arrange.OwnerPool

	// src is the arrangement this invariant was derived from; it is
	// immutable, and FromArrangementDelta matches it against a derived
	// arrangement's provenance.
	src *arrange.Arrangement

	canonMu sync.Mutex // guards canon and comps (T values are shared by caches)
	canon   string     // cached canonical encoding
	// comps holds every component's encoding per chirality once Canonical
	// has run. FromArrangementDelta pre-fills the entries it reuses from
	// the parent generation ("" marks one still to encode) before the T is
	// published.
	comps [2][]string
}

// Stats returns the cell counts (vertices, edges, faces) of the maximal
// cell complex, the numbers the paper reports in its examples.
func (t *T) Stats() (v, e, f int) { return len(t.Verts), len(t.Edges), len(t.Faces) }

// New computes the invariant of an instance.
func New(in *spatial.Instance) (*T, error) {
	a, err := arrange.Build(in)
	if err != nil {
		return nil, err
	}
	return FromArrangement(a)
}

// FromArrangement derives the invariant from an existing arrangement.
func FromArrangement(a *arrange.Arrangement) (*T, error) {
	return FromArrangementCtx(context.Background(), a)
}

// canceledDerive wraps a fired context's error so callers see both the
// invariant origin and (via errors.Is) the underlying context cause.
func canceledDerive(ctx context.Context) error {
	return fmt.Errorf("invariant: derivation canceled: %w", ctx.Err())
}

// FromArrangementCtx is FromArrangement honoring ctx: the derivation's
// loops over the arrangement's vertices, chains and faces poll the context
// and abandon the construction with the context's error once it fires, so
// a canceled snapshot query stops burning CPU mid-derivation.
func FromArrangementCtx(ctx context.Context, a *arrange.Arrangement) (*T, error) {
	t := &T{Names: a.Names, Exterior: -1, Pool: a.Pool, src: a}

	// 1. Decide which arrangement vertices survive: degree != 2, or the
	// two incident edges differ in ownership. Owners handles are interned
	// in a.Pool, so == on handles is exactly set equality.
	keep := make([]int, len(a.Verts)) // new index or -1
	for vi := range a.Verts {
		if vi&1023 == 0 && ctx.Err() != nil {
			return nil, canceledDerive(ctx)
		}
		keep[vi] = -1
		out := a.Verts[vi].Out
		if len(out) == 2 {
			e1 := a.Edges[a.Half[out[0]].Edge]
			e2 := a.Edges[a.Half[out[1]].Edge]
			if e1.Owners == e2.Owners {
				continue // dissolve
			}
		}
		keep[vi] = len(t.Verts)
		t.Verts = append(t.Verts, Vert{
			Label: a.Verts[vi].Label,
			Comp:  a.Verts[vi].Comp,
		})
	}

	// 2. Build chains. Walk from each kept-vertex half-edge through
	// dissolved vertices; leftover edges form vertex-free closed curves.
	edgeChain := make([]int, len(a.Edges)) // arrangement edge -> invariant edge
	for i := range edgeChain {
		edgeChain[i] = -1
	}
	// endOf[h] for arrangement half-edges that begin a chain at a kept
	// vertex: which End of which invariant edge.
	endOf := make(map[int]End)

	advance := func(h int) int {
		// Continue the chain through a dissolved vertex: at head(h),
		// the continuing half-edge is the other outgoing one.
		w := a.Head(h)
		out := a.Verts[w].Out
		twin := a.Half[h].Twin
		if out[0] == twin {
			return out[1]
		}
		return out[0]
	}

	for vi := range a.Verts {
		if vi&1023 == 0 && ctx.Err() != nil {
			return nil, canceledDerive(ctx)
		}
		if keep[vi] == -1 {
			continue
		}
		for _, h0 := range a.Verts[vi].Out {
			if edgeChain[a.Half[h0].Edge] != -1 {
				continue // chain already built from the other end
			}
			ei := len(t.Edges)
			h := h0
			for {
				edgeChain[a.Half[h].Edge] = ei
				if keep[a.Head(h)] != -1 {
					break
				}
				h = advance(h)
			}
			e0 := a.Edges[a.Half[h0].Edge]
			endV := keep[a.Head(h)]
			t.Edges = append(t.Edges, Edge{
				V1:     keep[vi],
				V2:     endV,
				Owners: e0.Owners,
				Label:  e0.Label,
				Comp:   e0.Comp,
				FL:     a.Half[h0].Face,
				FR:     a.Half[a.Half[h0].Twin].Face,
			})
			endOf[h0] = End{ei, 0}
			// The arriving half-edge at the far end: its twin leaves
			// the far vertex and is the side-1 end.
			endOf[a.Half[h].Twin] = End{ei, 1}
		}
	}
	// Vertex-free closed curves.
	for aei := range a.Edges {
		if edgeChain[aei] != -1 {
			continue
		}
		ei := len(t.Edges)
		h := a.Edges[aei].H1
		for {
			if edgeChain[a.Half[h].Edge] != -1 {
				break
			}
			edgeChain[a.Half[h].Edge] = ei
			h = advance(h)
		}
		e0 := a.Edges[aei]
		t.Edges = append(t.Edges, Edge{
			V1: -1, V2: -1,
			Owners: e0.Owners,
			Label:  e0.Label,
			Comp:   e0.Comp,
			FL:     a.Half[e0.H1].Face,
			FR:     a.Half[e0.H2].Face,
		})
	}

	// 3. Rotation lists at kept vertices.
	for vi := range a.Verts {
		if keep[vi] == -1 {
			continue
		}
		v := &t.Verts[keep[vi]]
		for _, h := range a.Verts[vi].Out {
			en, ok := endOf[h]
			if !ok {
				return nil, fmt.Errorf("invariant: missing chain end at vertex %d", vi)
			}
			v.Rot = append(v.Rot, en)
		}
	}

	// 4. Faces (copied one-to-one from the arrangement) with invariant
	// edge incidence and nesting children.
	t.Exterior = a.Exterior
	for fi := range a.Faces {
		if fi&255 == 0 && ctx.Err() != nil {
			return nil, canceledDerive(ctx)
		}
		af := &a.Faces[fi]
		f := Face{Label: af.Label, Bounded: af.Bounded, Comp: af.Comp}
		seen := make(map[int]bool)
		for _, w := range af.Walks {
			for _, h := range a.WalkHalfEdges(w) {
				ie := edgeChain[a.Half[h].Edge]
				if !seen[ie] {
					seen[ie] = true
					f.Edges = append(f.Edges, ie)
				}
			}
		}
		sort.Ints(f.Edges)
		t.Faces = append(t.Faces, f)
	}

	// 5. Components and nesting.
	for ci := range a.Comps {
		t.Comps = append(t.Comps, Comp{ParentFace: a.Comps[ci].ParentFace})
	}
	for vi := range t.Verts {
		c := t.Verts[vi].Comp
		t.Comps[c].Verts = append(t.Comps[c].Verts, vi)
	}
	for ei := range t.Edges {
		c := t.Edges[ei].Comp
		t.Comps[c].Edges = append(t.Comps[c].Edges, ei)
	}
	for ci := range t.Comps {
		pf := t.Comps[ci].ParentFace
		t.Faces[pf].Children = append(t.Faces[pf].Children, ci)
	}
	// Depths for bottom-up canonical encoding.
	var depth func(ci int) int
	depth = func(ci int) int {
		c := &t.Comps[ci]
		if c.Depth > 0 {
			return c.Depth
		}
		if c.ParentFace == t.Exterior {
			c.Depth = 1
		} else {
			c.Depth = depth(t.Faces[c.ParentFace].Comp) + 1
		}
		return c.Depth
	}
	for ci := range t.Comps {
		depth(ci)
	}
	return t, nil
}

// Simple reports whether the instance is simple in the paper's sense: the
// boundary walk of every face is a simple closed curve. Equivalently, every
// face has exactly one boundary walk, no loops, no repeated edge visits,
// and the skeleton is connected.
func (t *T) Simple() bool {
	if len(t.Comps) != 1 {
		return false
	}
	for _, e := range t.Edges {
		if e.IsLoop() {
			return false
		}
		if e.FL == e.FR {
			return false // bridge: face walk repeats the edge
		}
	}
	return true
}

// Connected reports whether the skeleton is connected.
func (t *T) Connected() bool { return len(t.Comps) == 1 }

// OtherEnd returns the opposite end of an edge.
func OtherEnd(en End) End { return End{en.Edge, 1 - en.Side} }

// EndVertex returns the vertex at the given end, or -1 for closed edges.
func (t *T) EndVertex(en End) int {
	e := t.Edges[en.Edge]
	if en.Side == 0 {
		return e.V1
	}
	return e.V2
}

// String renders a compact multi-line description for debugging and CLIs.
func (t *T) String() string {
	var b strings.Builder
	v, e, f := t.Stats()
	fmt.Fprintf(&b, "invariant: %d vertices, %d edges, %d faces, %d components\n", v, e, f, len(t.Comps))
	for i, vt := range t.Verts {
		fmt.Fprintf(&b, "  v%d label=%s rot=%v\n", i, vt.Label, vt.Rot)
	}
	for i, ed := range t.Edges {
		fmt.Fprintf(&b, "  e%d (v%d-v%d) label=%s faces=(%d|%d)\n", i, ed.V1, ed.V2, ed.Label, ed.FL, ed.FR)
	}
	for i, fc := range t.Faces {
		ext := ""
		if i == t.Exterior {
			ext = " f0"
		}
		fmt.Fprintf(&b, "  f%d%s label=%s edges=%v children=%v\n", i, ext, fc.Label, fc.Edges, fc.Children)
	}
	return b.String()
}
