package arrange

import (
	"sort"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/region"
	"topodb/internal/spatial"
)

func labelMultiset(t *testing.T, a *Arrangement) []string {
	t.Helper()
	var out []string
	for _, f := range a.Faces {
		out = append(out, f.Label.Key())
	}
	sort.Strings(out)
	return out
}

func TestBuildSingleSquare(t *testing.T) {
	in := spatial.New().MustAdd("A", region.MustRect(0, 0, 4, 4))
	a, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	v, e, f := a.Stats()
	if v != 4 || e != 4 || f != 2 {
		t.Fatalf("stats = %d,%d,%d; want 4,4,2", v, e, f)
	}
	if got := labelMultiset(t, a); got[0] != "-" || got[1] != "o" {
		t.Fatalf("labels = %v", got)
	}
	if a.Faces[a.Exterior].Label.Key() != "-" {
		t.Fatal("exterior face should be outside A")
	}
	if len(a.Comps) != 1 || a.Comps[0].ParentFace != a.Exterior {
		t.Fatal("single component should be a root")
	}
	// Rotation system: every vertex of a square has degree 2.
	for _, vtx := range a.Verts {
		if len(vtx.Out) != 2 {
			t.Fatalf("square corner degree %d", len(vtx.Out))
		}
	}
}

func TestBuildFig1c(t *testing.T) {
	a, err := Build(spatial.Fig1c())
	if err != nil {
		t.Fatal(err)
	}
	v, e, f := a.Stats()
	if v != 10 || e != 12 || f != 4 {
		t.Fatalf("stats = %d,%d,%d; want 10,12,4", v, e, f)
	}
	want := []string{"--", "-o", "o-", "oo"}
	if got := labelMultiset(t, a); !equalStrings(got, want) {
		t.Fatalf("face labels = %v, want %v", got, want)
	}
	// The lens: point (3,3) is in A∩B.
	fi, err := a.FaceOfPoint(geom.P(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if a.Faces[fi].Label.Key() != "oo" {
		t.Fatalf("lens face label = %s", a.Faces[fi].Label)
	}
	// Crossing vertices (4,2) and (2,4) have degree 4.
	deg4 := 0
	for _, vtx := range a.Verts {
		if len(vtx.Out) == 4 {
			deg4++
			if vtx.Label.Key() != "bb" {
				t.Fatalf("crossing vertex label = %s", vtx.Label)
			}
		}
	}
	if deg4 != 2 {
		t.Fatalf("expected 2 degree-4 vertices, got %d", deg4)
	}
	if len(a.Comps) != 1 {
		t.Fatalf("components = %d", len(a.Comps))
	}
}

func TestBuildFig1d(t *testing.T) {
	a, err := Build(spatial.Fig1d())
	if err != nil {
		t.Fatal(err)
	}
	// Two lens faces labeled "oo".
	lens := 0
	for _, f := range a.Faces {
		if f.Label.Key() == "oo" {
			lens++
		}
	}
	if lens != 2 {
		t.Fatalf("Fig1d should have 2 intersection faces, got %d", lens)
	}
	// Fig1c has exactly 1.
	c, _ := Build(spatial.Fig1c())
	lensC := 0
	for _, f := range c.Faces {
		if f.Label.Key() == "oo" {
			lensC++
		}
	}
	if lensC != 1 {
		t.Fatalf("Fig1c should have 1 intersection face, got %d", lensC)
	}
}

func TestBuildNestedVsDisjoint(t *testing.T) {
	nested, disjoint := spatial.NestedPair()
	an, err := Build(nested)
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Build(disjoint)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []*Arrangement{an, ad} {
		if v, e, f := a.Stats(); v != 8 || e != 8 || f != 3 {
			t.Fatalf("stats = %d,%d,%d; want 8,8,3", v, e, f)
		}
		if len(a.Comps) != 2 {
			t.Fatalf("components = %d", len(a.Comps))
		}
	}
	if got := labelMultiset(t, an); !equalStrings(got, []string{"--", "o-", "oo"}) {
		t.Fatalf("nested labels = %v", got)
	}
	if got := labelMultiset(t, ad); !equalStrings(got, []string{"--", "-o", "o-"}) {
		t.Fatalf("disjoint labels = %v", got)
	}
	// Nesting forest: in nested, B's component parent is A's bounded face.
	roots, nonRoots := 0, 0
	for _, c := range an.Comps {
		if c.ParentFace == an.Exterior {
			roots++
		} else {
			nonRoots++
			if !an.Faces[c.ParentFace].Bounded {
				t.Fatal("non-root parent must be bounded")
			}
		}
	}
	if roots != 1 || nonRoots != 1 {
		t.Fatalf("nested forest: roots=%d nonRoots=%d", roots, nonRoots)
	}
	for _, c := range ad.Comps {
		if c.ParentFace != ad.Exterior {
			t.Fatal("disjoint components must both be roots")
		}
	}
}

func TestBuildFig7b(t *testing.T) {
	i, _ := spatial.Fig7b()
	a, err := Build(i)
	if err != nil {
		t.Fatal(err)
	}
	v, e, f := a.Stats()
	if v != 13 || e != 16 || f != 5 {
		t.Fatalf("stats = %d,%d,%d; want 13,16,5", v, e, f)
	}
	if len(a.Comps) != 1 {
		t.Fatalf("components = %d", len(a.Comps))
	}
	// The origin vertex has degree 8 and lies on all four boundaries.
	found := false
	for _, vtx := range a.Verts {
		if vtx.P.Equal(geom.P(0, 0)) {
			found = true
			if len(vtx.Out) != 8 {
				t.Fatalf("origin degree = %d", len(vtx.Out))
			}
			if vtx.Label.Key() != "bbbb" {
				t.Fatalf("origin label = %s", vtx.Label)
			}
		}
	}
	if !found {
		t.Fatal("origin vertex missing")
	}
}

func TestBuildInterlockedO(t *testing.T) {
	a, err := Build(spatial.InterlockedO())
	if err != nil {
		t.Fatal(err)
	}
	v, e, f := a.Stats()
	if v != 10 || e != 12 || f != 4 {
		t.Fatalf("stats = %d,%d,%d; want 10,12,4", v, e, f)
	}
	// Two faces labeled "--": the hole and the exterior.
	empty := 0
	holeBounded := false
	for fi, fc := range a.Faces {
		if fc.Label.Key() == "--" {
			empty++
			if fi != a.Exterior && fc.Bounded {
				holeBounded = true
			}
		}
	}
	if empty != 2 || !holeBounded {
		t.Fatalf("expected a bounded hole and the exterior with label --; empty=%d", empty)
	}
}

func TestSharedBoundaryArc(t *testing.T) {
	// Two squares sharing a full edge segment: the shared edge is owned
	// by both regions.
	in := spatial.New().
		MustAdd("A", region.MustRect(0, 0, 4, 4)).
		MustAdd("B", region.MustRect(4, 0, 8, 4))
	a, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, e := range a.Edges {
		if a.Pool.Count(e.Owners) == 2 {
			shared++
			if e.Label.Key() != "bb" {
				t.Fatalf("shared edge label = %s", e.Label)
			}
		}
	}
	if shared != 1 {
		t.Fatalf("expected 1 shared edge, got %d", shared)
	}
	v, e, f := a.Stats()
	if v != 6 || e != 7 || f != 3 {
		t.Fatalf("stats = %d,%d,%d; want 6,7,3", v, e, f)
	}
}

func TestPartialSharedBoundary(t *testing.T) {
	// B's left edge overlaps the middle part of A's right edge.
	in := spatial.New().
		MustAdd("A", region.MustRect(0, 0, 4, 6)).
		MustAdd("B", region.MustRect(4, 2, 8, 4))
	a, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, e := range a.Edges {
		if a.Pool.Count(e.Owners) == 2 {
			shared++
		}
	}
	if shared != 1 {
		t.Fatalf("expected 1 shared piece, got %d", shared)
	}
	// A's right edge should be split into 3 pieces.
	v, e, f := a.Stats()
	if f != 3 {
		t.Fatalf("faces = %d, want 3", f)
	}
	_ = v
	_ = e
}

func TestEulerFormulaAcrossFixtures(t *testing.T) {
	fixtures := map[string]*spatial.Instance{
		"fig1a": spatial.Fig1a(),
		"fig1b": spatial.Fig1b(),
		"fig1c": spatial.Fig1c(),
		"fig1d": spatial.Fig1d(),
		"O":     spatial.InterlockedO(),
	}
	i7, i7p := spatial.Fig7a()
	fixtures["fig7a"], fixtures["fig7a'"] = i7, i7p
	b7, b7p := spatial.Fig7b()
	fixtures["fig7b"], fixtures["fig7b'"] = b7, b7p
	for name, in := range fixtures {
		a, err := Build(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v, e, f := a.Stats()
		c := len(a.Comps)
		// Euler for planar graphs with c components: V - E + F = 1 + c.
		if v-e+f != 1+c {
			t.Errorf("%s: V-E+F = %d-%d+%d = %d, want %d", name, v, e, f, v-e+f, 1+c)
		}
		// Every face sample must reproduce the face's label.
		for fi, fc := range a.Faces {
			for ri, n := range a.Names {
				loc := in.MustExt(n).Locate(fc.Sample)
				want := Exterior
				if loc == geom.Inside {
					want = Interior
				}
				if fc.Label.At(ri) != want {
					t.Errorf("%s: face %d sample/label mismatch for %s", name, fi, n)
				}
			}
		}
		// Half-edge structural invariants.
		for h := range a.Half {
			if a.Half[a.Half[h].Twin].Twin != h {
				t.Fatalf("%s: twin not involutive", name)
			}
			if a.Half[h].Next < 0 {
				t.Fatalf("%s: next unset", name)
			}
			// Next preserves faces.
			if a.Half[a.Half[h].Next].Face != a.Half[h].Face {
				t.Fatalf("%s: face changes along walk", name)
			}
			// head(h) == origin(next(h))
			if a.Half[a.Half[h].Next].Origin != a.Head(h) {
				t.Fatalf("%s: walk not vertex-continuous", name)
			}
		}
	}
}

func TestFaceOfPointOnSkeletonErrors(t *testing.T) {
	a, _ := Build(spatial.Fig1c())
	if _, err := a.FaceOfPoint(geom.P(0, 0)); err == nil {
		t.Fatal("corner point should error")
	}
	if _, err := a.FaceOfPoint(geom.P(2, 0)); err == nil {
		t.Fatal("edge point should error")
	}
	fi, err := a.FaceOfPoint(geom.P(100, 100))
	if err != nil || fi != a.Exterior {
		t.Fatal("far point should be exterior")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkBuildFig1b(b *testing.B) {
	in := spatial.Fig1b()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(in); err != nil {
			b.Fatal(err)
		}
	}
}
