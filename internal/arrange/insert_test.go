package arrange

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// validateArrangement checks the structural invariants (Euler's formula,
// half-edge involutions) and every cell label against direct exact point
// location in the instance — ground truth independent of either
// construction path.
func validateArrangement(t *testing.T, a *Arrangement, in *spatial.Instance) {
	t.Helper()
	v, e, f := a.Stats()
	c := len(a.Comps)
	if v-e+f != 1+c {
		t.Fatalf("Euler: %d-%d+%d != 1+%d", v, e, f, c)
	}
	for h := range a.Half {
		if a.Half[a.Half[h].Twin].Twin != h {
			t.Fatalf("twin involution broken at %d", h)
		}
		if a.Half[a.Half[h].Next].Origin != a.Head(h) {
			t.Fatalf("next pointer broken at %d", h)
		}
		if a.Half[h].Face < 0 {
			t.Fatalf("half %d has no face", h)
		}
	}
	check := func(what string, p geom.Pt, l Label, boundaryOK bool) {
		for ri, name := range a.Names {
			var want Sign
			switch in.MustExt(name).Locate(p) {
			case geom.Inside:
				want = Interior
			case geom.OnBoundary:
				want = Boundary
				if !boundaryOK {
					t.Fatalf("%s point %s lies on boundary of %s", what, p, name)
				}
			}
			if l.At(ri) != want {
				t.Fatalf("%s point %s: label[%s]=%v want %v", what, p, name, l.At(ri), want)
			}
		}
	}
	for fi := range a.Faces {
		check(fmt.Sprintf("face %d sample", fi), a.Faces[fi].Sample, a.Faces[fi].Label, false)
	}
	for ei := range a.Edges {
		e := &a.Edges[ei]
		mid := geom.Mid(a.Verts[e.V1].P, a.Verts[e.V2].P)
		check(fmt.Sprintf("edge %d midpoint", ei), mid, e.Label, true)
		for ri, name := range a.Names {
			if a.Pool.Has(e.Owners, ri) != (in.MustExt(name).Locate(mid) == geom.OnBoundary) {
				t.Fatalf("edge %d: owners disagree with geometry for %s", ei, name)
			}
		}
	}
	for vi := range a.Verts {
		check(fmt.Sprintf("vertex %d", vi), a.Verts[vi].P, a.Verts[vi].Label, true)
	}
}

// cellFingerprint renders the arrangement's cells as a canonical geometric
// multiset — index-free, so two constructions of the same instance must
// produce equal fingerprints no matter how their arrays are ordered.
func cellFingerprint(a *Arrangement) string {
	var verts, edges, faces []string
	for vi := range a.Verts {
		verts = append(verts, a.Verts[vi].P.Key()+"|"+a.Verts[vi].Label.Key())
	}
	for ei := range a.Edges {
		e := &a.Edges[ei]
		p1, p2 := a.Verts[e.V1].P, a.Verts[e.V2].P
		if p2.Cmp(p1) < 0 {
			p1, p2 = p2, p1
		}
		edges = append(edges, fmt.Sprintf("%s|%s|%s|%s", p1.Key(), p2.Key(), ownersFP(a, e.Owners), e.Label.Key()))
	}
	for fi := range a.Faces {
		f := &a.Faces[fi]
		var walk []string
		for _, w := range f.Walks {
			walk = appendWalkEdges(walk, a, w)
		}
		sort.Strings(walk)
		faces = append(faces, fmt.Sprintf("%v|%s|%s|%s",
			f.Bounded, f.Area2, f.Label.Key(), strings.Join(walk, ";")))
	}
	sort.Strings(verts)
	sort.Strings(edges)
	sort.Strings(faces)
	return fmt.Sprintf("V:%s\nE:%s\nF:%s\nC:%d",
		strings.Join(verts, "\n"), strings.Join(edges, "\n"), strings.Join(faces, "\n"), len(a.Comps))
}

// appendWalkEdges appends the walk starting at h as index-free edge keys,
// one per half-edge in walk order.
func appendWalkEdges(keys []string, a *Arrangement, h int) []string {
	for _, wh := range a.WalkHalfEdges(h) {
		e := &a.Edges[a.Half[wh].Edge]
		p1, p2 := a.Verts[e.V1].P, a.Verts[e.V2].P
		if p2.Cmp(p1) < 0 {
			p1, p2 = p2, p1
		}
		keys = append(keys, p1.Key()+"~"+p2.Key())
	}
	return keys
}

// compMembers returns each component's vertices and edge count, read from
// the Comp stamps.
func compMembers(a *Arrangement) (verts [][]int, edges []int) {
	verts = make([][]int, len(a.Comps))
	edges = make([]int, len(a.Comps))
	for vi := range a.Verts {
		verts[a.Verts[vi].Comp] = append(verts[a.Verts[vi].Comp], vi)
	}
	for ei := range a.Edges {
		edges[a.Edges[ei].Comp]++
	}
	return verts, edges
}

// compFingerprint renders the nesting forest as a numbering-free multiset:
// per component, its smallest vertex point, its vertex and edge counts, and
// its parent face's primary walk (or "exterior"). It stays apart from
// cellFingerprint, whose hashes the committed seed goldens pin.
func compFingerprint(a *Arrangement) string {
	verts, edges := compMembers(a)
	walks := make(map[int]string) // parent face -> rendered primary walk
	rows := make([]string, len(a.Comps))
	for ci := range a.Comps {
		low := a.Verts[verts[ci][0]].P
		for _, vi := range verts[ci][1:] {
			if p := a.Verts[vi].P; p.Cmp(low) < 0 {
				low = p
			}
		}
		parent := "exterior"
		if fi := a.Comps[ci].ParentFace; fi != a.Exterior {
			w, ok := walks[fi]
			if !ok {
				keys := appendWalkEdges(nil, a, a.Faces[fi].Walks[0])
				sort.Strings(keys)
				w = strings.Join(keys, ";")
				walks[fi] = w
			}
			parent = w
		}
		rows[ci] = fmt.Sprintf("%s|%d|%d|%s", low.Key(), len(verts[ci]), edges[ci], parent)
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// subInstance returns the instance restricted to the given names.
func subInstance(in *spatial.Instance, names []string) *spatial.Instance {
	out := spatial.New()
	for _, n := range names {
		out.MustAdd(n, in.MustExt(n))
	}
	return out
}

// insertCases returns the generator matrix plus targeted shapes: deep
// nesting, shared borders, collinear overlaps, crossings.
func insertCases() map[string]*spatial.Instance {
	cases := map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(3),
		"overlap_chain":  workload.OverlapChain(10),
		"nested_rings":   workload.NestedRings(7),
		"county_mesh":    workload.CountyMesh(3),
		"lens_stack":     workload.LensStack(8),
		"circle_pair":    workload.CirclePair(12),
		"sparse_scatter": workload.SparseScatter(40),
		"city_blocks":    workload.CityBlocks(4),
	}
	for seed := int64(0); seed < 8; seed++ {
		cases[fmt.Sprintf("random_%02d", seed)] = randomInstance(seed, 5+int(seed%4))
	}
	return cases
}

// Property: inserting each instance's regions incrementally — in random
// batches, over a chain of Insert calls whose every parent is itself an
// Insert product — yields, at every intermediate generation, an
// arrangement that is cell-for-cell geometrically identical to the cold
// build of the same region set, with every label verified against exact
// point location.
func TestInsertMatchesColdBuild(t *testing.T) {
	ctx := context.Background()
	for name, in := range insertCases() {
		t.Run(name, func(t *testing.T) {
			names := in.Names()
			for trial := 0; trial < 3; trial++ {
				rng := rand.New(rand.NewSource(int64(len(name)*100 + trial)))
				// Insertion order: sorted, reversed (exercises the
				// non-identity index remap), then shuffled.
				order := append([]string(nil), names...)
				switch trial {
				case 1:
					for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
						order[i], order[j] = order[j], order[i]
					}
				case 2:
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				k := 1 + rng.Intn(2)
				cur, err := Build(subInstance(in, order[:k]))
				if err != nil {
					t.Fatal(err)
				}
				for k < len(order) {
					batch := 1 + rng.Intn(3)
					if k+batch > len(order) {
						batch = len(order) - k
					}
					added := order[k : k+batch]
					k += batch
					sub := subInstance(in, order[:k])
					next, err := Insert(ctx, cur, sub, added...)
					if err != nil {
						t.Fatalf("insert %v after %d regions: %v", added, k-batch, err)
					}
					validateArrangement(t, next, sub)
					cold, err := Build(sub)
					if err != nil {
						t.Fatal(err)
					}
					if cellFingerprint(next) != cellFingerprint(cold) || compFingerprint(next) != compFingerprint(cold) {
						t.Fatalf("trial %d: fingerprint diverged after inserting %v (%d regions)",
							trial, added, k)
					}
					cur = next
				}
			}
		})
	}
}

// Insert must reject deltas that are not pure extensions.
func TestInsertRejectsBadDeltas(t *testing.T) {
	ctx := context.Background()
	in := workload.OverlapChain(4)
	a, err := Build(subInstance(in, in.Names()[:3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Insert(ctx, a, in); err == nil {
		t.Fatal("no added regions must fail")
	}
	if _, err := Insert(ctx, a, in, "C000"); err == nil {
		t.Fatal("replacing an existing region must fail")
	}
	if _, err := Insert(ctx, a, in, "nope"); err == nil {
		t.Fatal("unknown added region must fail")
	}
	if _, err := Insert(ctx, a, subInstance(in, in.Names()[1:]), "C003"); err == nil {
		t.Fatal("dropping a parent region must fail")
	}
}

// A canceled context aborts the insert.
func TestInsertCanceled(t *testing.T) {
	in := workload.SparseScatter(30)
	names := in.Names()
	a, err := Build(subInstance(in, names[:len(names)-1]))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Insert(ctx, a, in, names[len(names)-1]); err == nil {
		t.Fatal("canceled insert must fail")
	}
}

// BenchmarkInsertScatter is the arrangement-level half of the incremental
// acceptance bar: deriving the n+1-region arrangement from a warm scatter
// parent must beat the cold rebuild by an order of magnitude, at n=200 and
// at n=1000, the size cmd/topobench serves.
func BenchmarkInsertScatter(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base := workload.SparseScatter(n)
			parent, err := Build(base)
			if err != nil {
				b.Fatal(err)
			}
			grown := base.Clone()
			grown.MustAdd("Znew", workload.SparseScatter(n+1).MustExt(fmt.Sprintf("S%04d", n)))
			parent.ensureLocIndex() // warm, as a served parent would be
			ctx := context.Background()
			b.Run("incremental", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Insert(ctx, parent, grown, "Znew"); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run("cold", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Build(grown); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// Regression: an island that merges with delta geometry can change shape
// while keeping its minimal half-edge id, so the enclosing face's reused
// sample can end up inside the enlarged island. The annulus face of A
// keeps a clean primary walk; its island B merges with the new region C,
// which covers the face's old sample area — the sample must be recomputed
// (validateArrangement asserts every sample's labels against ground
// truth).
func TestInsertResamplesFaceWithDirtyIsland(t *testing.T) {
	in := spatial.New()
	in.MustAdd("A", region.MustRect(0, 0, 20, 20))
	in.MustAdd("B", region.MustRect(8, 8, 12, 12))
	in.MustAdd("C", region.MustRect(9, 2, 11, 9))
	names := in.Names() // A, B, C
	parent, err := Build(subInstance(in, []string{"A", "B"}))
	if err != nil {
		t.Fatal(err)
	}
	next, err := Insert(context.Background(), parent, in, "C")
	if err != nil {
		t.Fatal(err)
	}
	validateArrangement(t, next, in)
	cold, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if cellFingerprint(next) != cellFingerprint(cold) || compFingerprint(next) != compFingerprint(cold) {
		t.Fatal("fingerprint diverged")
	}
	_ = names
}
