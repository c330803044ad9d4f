package folang

import (
	"context"
	"errors"
	"testing"

	"topodb/internal/region"
	"topodb/internal/spatial"
)

func evalOn(t *testing.T, in *spatial.Instance, refine int, query string) bool {
	t.Helper()
	u, err := NewUniverse(in, refine)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := NewEvaluator(u).EvalQuery(query)
	if err != nil {
		t.Fatalf("query %q: %v", query, err)
	}
	return ok
}

func TestParser(t *testing.T) {
	good := []string{
		"overlap(A, B)",
		"some region r: subset(r, A)",
		"all cell x: subset(x, A) implies connect(x, B)",
		"not disjoint(A, B) and (meet(A, B) or overlap(A, B))",
		"some name a: some name b: not a = b",
	}
	for _, q := range good {
		if _, err := Parse(q); err != nil {
			t.Errorf("Parse(%q): %v", q, err)
		}
	}
	bad := []string{
		"", "overlap(A)", "some r: subset(r, A)", "overlap(A, B) extra",
		"frob(A, B)", "some region : subset(r, A)", "(overlap(A, B)",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestAtomsOnFixtures(t *testing.T) {
	fig1c := spatial.Fig1c()
	if !evalOn(t, fig1c, 0, "overlap(A, B)") {
		t.Error("Fig1c: A overlaps B")
	}
	if evalOn(t, fig1c, 0, "disjoint(A, B)") {
		t.Error("Fig1c: A not disjoint B")
	}
	if !evalOn(t, fig1c, 0, "connect(A, B)") {
		t.Error("Fig1c: A connects B")
	}
	nested, disjoint := spatial.NestedPair()
	if !evalOn(t, nested, 0, "inside(B, A)") || !evalOn(t, nested, 0, "contains(A, B)") {
		t.Error("nested: B inside A")
	}
	if !evalOn(t, disjoint, 0, "disjoint(A, B)") {
		t.Error("disjoint pair")
	}
	if !evalOn(t, nested, 0, "subset(B, A)") {
		t.Error("nested: B subset A")
	}
	if !evalOn(t, nested, 0, "A = A") || evalOn(t, nested, 0, "A = B") {
		t.Error("extent equality")
	}
}

// Example 4.1: the query ∃r. r ⊆ A∩B∩C separates Fig 1a from Fig 1b.
func TestExample41SeparatesFig1aFig1b(t *testing.T) {
	q := "some cell r: (subset(r, A) and subset(r, B)) and subset(r, C)"
	if !evalOn(t, spatial.Fig1a(), 0, q) {
		t.Error("Fig1a satisfies the triple-intersection query")
	}
	if evalOn(t, spatial.Fig1b(), 0, q) {
		t.Error("Fig1b must not satisfy the triple-intersection query")
	}
}

// Example 4.2 / Example 2.1: "A∩B has one connected component" separates
// Fig 1c from Fig 1d: every two cells inside A∩B are joined by a region
// inside A∩B.
func TestConnectedIntersectionSeparatesFig1cFig1d(t *testing.T) {
	q := `all cell x: all cell y:
	        ((subset(x, A) and subset(x, B)) and (subset(y, A) and subset(y, B)))
	        implies
	        (some region r: ((subset(r, A) and subset(r, B)) and (connect(r, x) and connect(r, y))))`
	if !evalOn(t, spatial.Fig1c(), 0, q) {
		t.Error("Fig1c: A∩B is connected")
	}
	if evalOn(t, spatial.Fig1d(), 0, q) {
		t.Error("Fig1d: A∩B is not connected")
	}
}

// Fig 7b: the corridor query ∃r,r′ disjoint with r joining A,B and r′
// joining C,D — true for cyclic order A,B,C,D, false for A,C,B,D.
// Requires a refined universe so corridors exist as cell unions.
func TestFig7bCorridors(t *testing.T) {
	q := `some region r:
	        ((connect(r, A) and connect(r, B)) and (not connect(r, C) and not connect(r, D)))
	        and (some region s:
	            ((connect(s, C) and connect(s, D)) and (not connect(s, A) and not connect(s, B)))
	            and disjoint(r, s))`
	i, ip := spatial.Fig7b()
	run := func(in *spatial.Instance) bool {
		u, err := NewUniverse(in, 3)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(u)
		ev.Opts.MaxRegionFaces = 3
		ev.Opts.RegionEnumLimit = 30000
		ok, err := ev.EvalQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	if !run(i) {
		t.Error("Fig7b (order A,B,C,D): disjoint corridors must exist")
	}
	if run(ip) {
		t.Error("Fig7b' (order A,C,B,D): disjoint corridors must not exist")
	}
}

// The Fig 7a realization: C inside the hole of the interlocked O vs
// outside. Separator: ∃r′ ⊇ A and ⊇ B as a disc avoiding C — possible only
// when C is outside (a disc containing the O must contain its hole).
func TestFig7aHoleQuery(t *testing.T) {
	q := `some region r:
	        (subset(A, r) and subset(B, r)) and disjoint(r, C)`
	o := spatial.InterlockedO()
	inHole := o.Clone().MustAdd("C", mustRect(t, 5, 3, 7, 5))
	outside := o.Clone().MustAdd("C", mustRect(t, 20, 3, 22, 5))
	if evalOn(t, inHole, 2, q) {
		t.Error("C in hole: no disc around A,B can avoid C")
	}
	if !evalOn(t, outside, 2, q) {
		t.Error("C outside: a disc around A,B avoiding C exists")
	}
}

func TestNameQuantifiers(t *testing.T) {
	// "some pair of distinct names whose regions overlap".
	q := "some name a: some name b: (not a = b) and overlap(a, b)"
	if !evalOn(t, spatial.Fig1c(), 0, q) {
		t.Error("Fig1c has an overlapping pair")
	}
	_, disjoint := spatial.NestedPair()
	if evalOn(t, disjoint, 0, q) {
		t.Error("disjoint pair has no overlapping names")
	}
	// all name a: connect(a, a) — trivially true.
	if !evalOn(t, spatial.Fig1a(), 0, "all name a: connect(a, a)") {
		t.Error("self-connection")
	}
}

func TestCellQuantifierExterior(t *testing.T) {
	// Without refinement, every face of Fig1c touches a region boundary,
	// so no cell is fully disjoint from both regions (the exterior face
	// *meets* them).
	q := "some cell x: disjoint(x, A) and disjoint(x, B)"
	if evalOn(t, spatial.Fig1c(), 0, q) {
		t.Error("unrefined Fig1c has no cell disjoint from A and B")
	}
	if !evalOn(t, spatial.Fig1c(), 0, "some cell x: meet(x, A)") {
		t.Error("some cell meets A")
	}
	// With a scaffold grid, far cells exist.
	if !evalOn(t, spatial.Fig1c(), 3, q) {
		t.Error("refined Fig1c has far cells")
	}
	// All cells inside A are connected to A — trivially.
	if !evalOn(t, spatial.Fig1c(), 0, "all cell x: subset(x, A) implies connect(x, A)") {
		t.Error("cells of A connect to A")
	}
}

func TestRegionEnumRespectsLimit(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1b(), 2)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	u.EnumDiscRegions(50, 0, func(faces []int) bool {
		count++
		if !u.IsDiscRegion(faces) {
			t.Fatal("enumerated non-disc region")
		}
		return true
	})
	if count == 0 {
		t.Fatal("no regions enumerated")
	}
	if count > 50 {
		t.Fatalf("limit exceeded: %d", count)
	}
}

func TestRegularUnionIsOpen(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	u.EnumDiscRegions(1000, 0, func(faces []int) bool {
		b := u.RegularUnion(faces)
		// Openness: every edge in b has all its incident faces in b;
		// every vertex in b has all incident cells in b.
		for ei, fs := range u.tables().edgeFaces {
			if b.Has(u.edgeCell(ei)) {
				for _, f := range fs {
					if !b.Has(u.faceCell(f)) {
						t.Fatal("edge in region without its face")
					}
				}
			}
		}
		for vi, cells := range u.tables().vertCells {
			if b.Has(u.vertCell(vi)) {
				for _, c := range cells {
					if !b.Has(c) {
						t.Fatal("vertex in region without an incident cell")
					}
				}
			}
		}
		return true
	})
}

func mustRect(t *testing.T, x1, y1, x2, y2 int64) region.Region {
	t.Helper()
	return region.MustRect(x1, y1, x2, y2)
}

func BenchmarkEvalCellQuery(b *testing.B) {
	u, err := NewUniverse(spatial.Fig1b(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(u)
	f := MustParse("some cell r: (subset(r, A) and subset(r, B)) and subset(r, C)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalRegionQuery(b *testing.B) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		b.Fatal(err)
	}
	ev := NewEvaluator(u)
	f := MustParse("some region r: (subset(r, A) and subset(r, B))")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(f); err != nil {
			b.Fatal(err)
		}
	}
}

// A pre-fired context aborts the scaffold-universe build (the k > 0 path
// the per-generation cache uses) instead of running it to completion.
func TestNewUniverseCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewUniverseCtx(ctx, spatial.Fig1c(), 4); err == nil {
		t.Fatal("canceled universe build must fail")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v must unwrap to context.Canceled", err)
	}
	// An unfired context builds the same universe as the background path.
	u, err := NewUniverseCtx(context.Background(), spatial.Fig1c(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewUniverse(spatial.Fig1c(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.NumCells() != ref.NumCells() || u.NumFaces() != ref.NumFaces() {
		t.Fatalf("ctx universe (%d cells) differs from background build (%d cells)",
			u.NumCells(), ref.NumCells())
	}
}
