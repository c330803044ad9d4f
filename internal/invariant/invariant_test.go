package invariant

import (
	"testing"

	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

func mustNew(t *testing.T, in *spatial.Instance) *T {
	t.Helper()
	ti, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	return ti
}

// A lone region has the degenerate invariant the paper describes after
// Lemma 3.2: no vertices, one (closed) edge and two faces.
func TestSingleRegionDegenerate(t *testing.T) {
	for name, reg := range map[string]region.Region{
		"square":   region.MustRect(0, 0, 4, 4),
		"circle":   region.MustCircle(0, 0, 5, 16),
		"triangle": region.MustPoly(geom.Ring{geom.P(0, 0), geom.P(5, 0), geom.P(2, 4)}),
	} {
		ti := mustNew(t, spatial.New().MustAdd("A", reg))
		v, e, f := ti.Stats()
		if v != 0 || e != 1 || f != 2 {
			t.Errorf("%s: stats = %d,%d,%d; want 0,1,2", name, v, e, f)
		}
		if !ti.Edges[0].IsClosed() {
			t.Errorf("%s: edge should be closed", name)
		}
	}
}

// Shape independence: a square, a circle and a triangle are all discs, so
// their single-region invariants are identical.
func TestShapeIndependence(t *testing.T) {
	a := mustNew(t, spatial.New().MustAdd("A", region.MustRect(0, 0, 4, 4)))
	b := mustNew(t, spatial.New().MustAdd("A", region.MustCircle(100, 100, 7, 20)))
	if !Equivalent(a, b) {
		t.Fatal("square and circle should be topologically equivalent")
	}
}

// The paper's Example 3.1: the invariant of Fig 1c has 2 vertices, 4 edges
// and 4 faces, and each vertex has all four edges around it.
func TestFig1cExample31(t *testing.T) {
	ti := mustNew(t, spatial.Fig1c())
	v, e, f := ti.Stats()
	if v != 2 || e != 4 || f != 4 {
		t.Fatalf("stats = %d,%d,%d; want 2,4,4 (Example 3.1)", v, e, f)
	}
	for i, vt := range ti.Verts {
		if len(vt.Rot) != 4 {
			t.Errorf("vertex %d rotation has %d ends, want 4", i, len(vt.Rot))
		}
		if vt.Label.Key() != "bb" {
			t.Errorf("vertex %d label %s, want bb", i, vt.Label)
		}
	}
	// Edge labels: (∂A,B-), (∂A,Bo), (A-,∂B), (Ao,∂B).
	want := map[string]int{"b-": 1, "bo": 1, "-b": 1, "ob": 1}
	got := map[string]int{}
	for _, ed := range ti.Edges {
		got[ed.Label.Key()]++
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("edge labels = %v, want %v", got, want)
		}
	}
	// Face labels: (oo), (o-), (-o), (--).
	wantF := map[string]int{"oo": 1, "o-": 1, "-o": 1, "--": 1}
	gotF := map[string]int{}
	for _, fc := range ti.Faces {
		gotF[fc.Label.Key()]++
	}
	for k, n := range wantF {
		if gotF[k] != n {
			t.Fatalf("face labels = %v, want %v", gotF, wantF)
		}
	}
	if !ti.Simple() || !ti.Connected() {
		t.Error("Fig1c should be simple and connected")
	}
}

// Fig 1a vs 1b: 4-intersection equivalent but not topologically equivalent.
func TestFig1aVs1bInequivalent(t *testing.T) {
	a := mustNew(t, spatial.Fig1a())
	b := mustNew(t, spatial.Fig1b())
	if Equivalent(a, b) {
		t.Fatal("Fig1a and Fig1b must not be topologically equivalent")
	}
}

// Fig 1c vs 1d: 4-intersection equivalent but not topologically equivalent.
func TestFig1cVs1dInequivalent(t *testing.T) {
	c := mustNew(t, spatial.Fig1c())
	d := mustNew(t, spatial.Fig1d())
	if Equivalent(c, d) {
		t.Fatal("Fig1c and Fig1d must not be topologically equivalent")
	}
}

// Invariance under rigid transformations and reflection: translated,
// scaled, and mirrored copies are equivalent.
func TestTransformInvariance(t *testing.T) {
	base := spatial.Fig1c()
	ti := mustNew(t, base)

	translated := spatial.New().
		MustAdd("A", region.MustRect(100, 200, 104, 204)).
		MustAdd("B", region.MustRect(102, 202, 106, 206))
	if !Equivalent(ti, mustNew(t, translated)) {
		t.Error("translation changed the invariant")
	}
	scaled := spatial.New().
		MustAdd("A", region.MustRect(0, 0, 40, 40)).
		MustAdd("B", region.MustRect(20, 20, 60, 60))
	if !Equivalent(ti, mustNew(t, scaled)) {
		t.Error("scaling changed the invariant")
	}
	// Mirror along x: (x,y) -> (-x,y).
	mirrored := spatial.New().
		MustAdd("A", region.MustRect(-4, 0, 0, 4)).
		MustAdd("B", region.MustRect(-6, 2, -2, 6))
	if !Equivalent(ti, mustNew(t, mirrored)) {
		t.Error("reflection changed the invariant (single reflection is a homeomorphism)")
	}
	// Swapping the names is NOT the identity on names... but Fig1c is
	// symmetric in A and B, so it stays equivalent; use an asymmetric
	// pair to check labels matter.
	asym := spatial.New().
		MustAdd("A", region.MustRect(2, 2, 6, 6)).
		MustAdd("B", region.MustRect(0, 0, 4, 4))
	if !Equivalent(ti, mustNew(t, asym)) {
		t.Error("Fig1c is A/B symmetric; swapped version should be equivalent")
	}
}

// Nesting matters: B inside A vs B disjoint from A.
func TestNestingDistinguished(t *testing.T) {
	nested, disjoint := spatial.NestedPair()
	tn, td := mustNew(t, nested), mustNew(t, disjoint)
	if Equivalent(tn, td) {
		t.Fatal("nested and disjoint must differ")
	}
	if tn.Connected() || td.Connected() {
		t.Error("both are disconnected instances")
	}
	// Nested: one root component; disjoint: two roots.
	rootsN, rootsD := 0, 0
	for _, c := range tn.Comps {
		if c.ParentFace == tn.Exterior {
			rootsN++
		}
	}
	for _, c := range td.Comps {
		if c.ParentFace == td.Exterior {
			rootsD++
		}
	}
	if rootsN != 1 || rootsD != 2 {
		t.Fatalf("roots: nested=%d disjoint=%d", rootsN, rootsD)
	}
}

// The Fig 6 lesson: the exterior face is genuinely extra information — the
// hole and the exterior of the interlocked O carry the same label, and a
// disc inside the hole vs outside the O (our Fig 7a realization) are
// distinguished only by nesting.
func TestFig7aNestingInLabelAmbiguousFace(t *testing.T) {
	o := spatial.InterlockedO()
	inHole := o.Clone().MustAdd("C", region.MustRect(5, 3, 7, 5))
	outside := o.Clone().MustAdd("C", region.MustRect(20, 3, 22, 5))
	ti, to := mustNew(t, inHole), mustNew(t, outside)
	// Same per-component structure; C's face label is (--C:o) in both.
	if Equivalent(ti, to) {
		t.Fatal("C-in-hole and C-outside must not be equivalent")
	}
	// Both contain a bounded face labeled "--" (the hole).
	for _, tt := range []*T{ti, to} {
		found := false
		for fi, fc := range tt.Faces {
			if fc.Bounded && fi != tt.Exterior && fc.Label.Key() == "---" {
				found = true
			}
		}
		if !found {
			t.Fatal("hole face missing")
		}
	}
}

// Fig 7b: orientation information O is essential — the two instances have
// isomorphic labeled graphs but different cyclic orders at the touch point.
func TestFig7bOrientationDistinguished(t *testing.T) {
	i, ip := spatial.Fig7b()
	ti, tp := mustNew(t, i), mustNew(t, ip)
	v1, e1, f1 := ti.Stats()
	v2, e2, f2 := tp.Stats()
	if v1 != v2 || e1 != e2 || f1 != f2 {
		t.Fatalf("stats differ: %d,%d,%d vs %d,%d,%d", v1, e1, f1, v2, e2, f2)
	}
	// After smoothing: one vertex (the origin), 4 loop edges, 5 faces.
	if v1 != 1 || e1 != 4 || f1 != 5 {
		t.Fatalf("stats = %d,%d,%d; want 1,4,5", v1, e1, f1)
	}
	if Equivalent(ti, tp) {
		t.Fatal("Fig7b instances must not be equivalent (cyclic order differs)")
	}
}

// A reflection of Fig7b' gives the reverse cyclic order A,D,B,C... check
// that reflecting an orientation-sensitive instance is still equivalent to
// itself reflected (global chirality flip is allowed).
func TestGlobalChiralityFlipAllowed(t *testing.T) {
	i, _ := spatial.Fig7b()
	// Mirror along the x-axis: (x,y) -> (x,-y).
	m := spatial.New()
	for _, n := range i.Names() {
		ring := i.MustExt(n).Ring()
		out := make(geom.Ring, len(ring))
		for k, p := range ring {
			out[k] = geom.Pt{X: p.X, Y: p.Y.Neg()}
		}
		m.MustAdd(n, region.MustPoly(out))
	}
	ti, tm := mustNew(t, i), mustNew(t, m)
	if !Equivalent(ti, tm) {
		t.Fatal("a mirrored instance must be equivalent (reflection is a homeomorphism)")
	}
}

// Mixed chirality across components must NOT be allowed: a chiral cluster
// and its mirror image in one instance vs two same-handed copies in the
// other (paper's Theorem 3.4, disconnected case).
func TestMixedChiralityRejected(t *testing.T) {
	base, _ := spatial.Fig7b()
	// transform applies (x,y) -> (sx*x+dx, y) and renames regions.
	transform := func(in *spatial.Instance, sx, dx int64, suffix string) *spatial.Instance {
		out := spatial.New()
		for _, n := range in.Names() {
			ring := in.MustExt(n).Ring()
			nr := make(geom.Ring, len(ring))
			for k, p := range ring {
				nr[k] = geom.Pt{X: p.X.Mul(rat.FromInt(sx)).Add(rat.FromInt(dx)), Y: p.Y}
			}
			out.MustAdd(n+suffix, region.MustPoly(nr))
		}
		return out
	}
	merge := func(a, b *spatial.Instance) *spatial.Instance {
		out := a.Clone()
		for _, n := range b.Names() {
			r, _ := b.Ext(n)
			out.MustAdd(n, r)
		}
		return out
	}
	// I: two same-handed copies. J: a copy plus a mirrored copy.
	i := merge(transform(base, 1, 0, ""), transform(base, 1, 100, "2"))
	j := merge(transform(base, 1, 0, ""), transform(base, -1, 100, "2"))
	ti, tj := mustNew(t, i), mustNew(t, j)
	if Equivalent(ti, tj) {
		t.Fatal("mixed-chirality pair must not be equivalent to same-handed pair")
	}
	// But J is equivalent to its own full mirror.
	jm := merge(transform(base, -1, 0, ""), transform(base, 1, 100, "2"))
	if !Equivalent(tj, mustNew(t, jm)) {
		t.Fatal("fully mirrored J should be equivalent to J")
	}
}

// Canonical form must be deterministic and stable.
func TestCanonicalDeterministic(t *testing.T) {
	a := mustNew(t, spatial.Fig1b())
	b := mustNew(t, spatial.Fig1b())
	if a.Canonical() != b.Canonical() {
		t.Fatal("canonical form not deterministic")
	}
}

func BenchmarkInvariantFig1b(b *testing.B) {
	in := spatial.Fig1b()
	for i := 0; i < b.N; i++ {
		if _, err := New(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCanonicalFig1b(b *testing.B) {
	benchmarkCanonical(b, spatial.Fig1b())
}

// BenchmarkCanonicalCountyMesh10 times a cold canonical encoding of a
// 100-county mesh: one component of 434 cells, so the minimization over
// its starts dominates.
func BenchmarkCanonicalCountyMesh10(b *testing.B) {
	benchmarkCanonical(b, workload.CountyMesh(10))
}

func benchmarkCanonical(b *testing.B, in *spatial.Instance) {
	ti, err := New(in)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ti.canon, ti.comps = "", [2][]string{} // reset the cached encodings
		sinkCanonical = ti.Canonical()
	}
}

var sinkCanonical string
