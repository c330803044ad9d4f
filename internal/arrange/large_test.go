package arrange

import (
	"context"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/workload"
)

// TestThousandRegionBuild is the break-the-ceiling acceptance test at the
// arrangement layer: a 1024-region instance — four times the old
// compile-time 256-region owner-set cap — builds under the default
// budget, labels correctly (spot-checked against exact point location in
// the source regions), owns edges consistently with geometry, and answers
// indexed point location identically to the linear-scan reference.
func TestThousandRegionBuild(t *testing.T) {
	const n = 1024
	in := workload.ManyRegions(n)
	a, err := Build(in)
	if err != nil {
		t.Fatalf("1024-region build under default budget: %v", err)
	}
	if len(a.Names) != n {
		t.Fatalf("built %d regions, want %d", len(a.Names), n)
	}

	// Owner sets past the old ceiling: some edge must be owned by a region
	// with index >= 256, and every sampled edge's owner set must agree
	// with exact boundary location.
	pastCeiling := false
	for ei := 0; ei < len(a.Edges); ei += 13 {
		e := &a.Edges[ei]
		mid := geom.Mid(a.Verts[e.V1].P, a.Verts[e.V2].P)
		for _, ri := range a.Pool.Members(e.Owners) {
			if ri >= 256 {
				pastCeiling = true
			}
			if in.MustExt(a.Names[ri]).Locate(mid) != geom.OnBoundary {
				t.Fatalf("edge %d: owner %s but midpoint %s not on its boundary", ei, a.Names[ri], mid)
			}
		}
	}
	if !pastCeiling {
		t.Fatal("no sampled edge owned by a region with index >= 256 — the test is not past the old ceiling")
	}

	// Labels, spot-checked: for sampled cells, every non-Exterior sign is
	// verified by an exact ring walk, and every region claimed Exterior
	// whose bounding box contains the point is re-checked too (a point
	// outside the box is Exterior by construction).
	boxes := in.Boxes()
	checkLabel := func(what string, p geom.Pt, l Label) {
		t.Helper()
		for ri := 0; ri < l.Len(); ri++ {
			sign := l.At(ri)
			var want Sign
			if boxes[ri].ContainsPt(p) {
				switch in.MustExt(a.Names[ri]).Locate(p) {
				case geom.Inside:
					want = Interior
				case geom.OnBoundary:
					want = Boundary
				}
			}
			if sign != want {
				t.Fatalf("%s at %s: label[%s]=%v want %v", what, p, a.Names[ri], sign, want)
			}
		}
	}
	for fi := 0; fi < len(a.Faces); fi += 29 {
		checkLabel("face sample", a.Faces[fi].Sample, a.Faces[fi].Label)
	}
	for ei := 0; ei < len(a.Edges); ei += 97 {
		e := &a.Edges[ei]
		checkLabel("edge midpoint", geom.Mid(a.Verts[e.V1].P, a.Verts[e.V2].P), e.Label)
	}
	for vi := 0; vi < len(a.Verts); vi += 97 {
		checkLabel("vertex", a.Verts[vi].P, a.Verts[vi].Label)
	}

	// Indexed point location vs the linear-scan reference.
	probes := 0
	for fi := 0; fi < len(a.Faces); fi += 41 {
		if !a.Faces[fi].Bounded {
			continue
		}
		p := a.Faces[fi].Sample
		got, err := a.FaceOfPoint(p)
		if err != nil {
			t.Fatalf("FaceOfPoint(%s): %v", p, err)
		}
		want, err := faceOfPointScan(a, p)
		if err != nil {
			t.Fatalf("faceOfPointScan(%s): %v", p, err)
		}
		if got != want {
			t.Fatalf("probe %s: indexed face %d, scan face %d", p, got, want)
		}
		probes++
	}
	if probes < 20 {
		t.Fatalf("only %d probes — fixture too small to be meaningful", probes)
	}
}

// TestThousandRegionInsertMatchesCold: incremental Insert at the new
// scale. Deriving the 1024-region arrangement from a 1020-region parent
// (the pool cloned and extended) is cell-for-cell byte-identical to the
// cold build — the same property the n <= 256 generators pin, now with
// owner handles that outgrow any fixed-width set — and its point location
// agrees with the linear-scan oracle.
func TestThousandRegionInsertMatchesCold(t *testing.T) {
	const n = 1024
	in := workload.ManyRegions(n)
	names := in.Names()
	parent, err := Build(subInstance(in, names[:n-4]))
	if err != nil {
		t.Fatal(err)
	}
	next, err := Insert(context.Background(), parent, in, names[n-4:]...)
	if err != nil {
		t.Fatalf("Insert of 4 regions onto 1020: %v", err)
	}
	if next.Pool == parent.Pool {
		t.Fatal("Insert shared the parent's pool instead of cloning it")
	}
	cold, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if cellFingerprint(next) != cellFingerprint(cold) || compFingerprint(next) != compFingerprint(cold) {
		t.Fatal("incremental 1024-region arrangement diverged from the cold build")
	}

	// Point location on the Insert-derived arrangement: the indexed path
	// vs the linear-scan oracle.
	probes := 0
	for fi := 0; fi < len(next.Faces); fi += 43 {
		if !next.Faces[fi].Bounded {
			continue
		}
		p := next.Faces[fi].Sample
		got, err := next.FaceOfPoint(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := faceOfPointScan(next, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("probe %s: indexed face %d, scan face %d", p, got, want)
		}
		probes++
	}
	if probes < 20 {
		t.Fatalf("only %d probes", probes)
	}

	// Non-identity remap at scale: an added name sorting before every
	// existing one shifts all 1024 region indices, so every parent owner
	// handle is re-interned into a fresh pool.
	grown := in.Clone()
	grown.MustAdd("A_first", workload.ManyRegions(1).MustExt("M00000"))
	shifted, err := Insert(context.Background(), cold, grown, "A_first")
	if err != nil {
		t.Fatalf("Insert with non-identity remap: %v", err)
	}
	coldGrown, err := Build(grown)
	if err != nil {
		t.Fatal(err)
	}
	if cellFingerprint(shifted) != cellFingerprint(coldGrown) || compFingerprint(shifted) != compFingerprint(coldGrown) {
		t.Fatal("remapped 1025-region arrangement diverged from the cold build")
	}
}

// Budget admission at the arrangement layer: Build and Insert reject an
// instance one region past the budget and admit it one region under.
func TestRegionBudgetGates(t *testing.T) {
	old := SetRegionBudget(100)
	defer SetRegionBudget(old)
	in := workload.ManyRegions(101)
	if _, err := Build(in); err == nil {
		t.Fatal("build of 101 regions under a 100-region budget succeeded")
	}
	names := in.Names()
	parent, err := Build(subInstance(in, names[:100]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Insert(context.Background(), parent, in, names[100]); err == nil {
		t.Fatal("insert past the budget succeeded")
	}
	SetRegionBudget(101)
	if _, err := Insert(context.Background(), parent, in, names[100]); err != nil {
		t.Fatalf("insert within the raised budget: %v", err)
	}
}
