package topodb

import (
	"context"
	"testing"

	"topodb/internal/fourint"
	"topodb/internal/workload"
)

// TestThousandRegionServing is the end-to-end acceptance test for
// breaking the 256-region ceiling: a 1024-region instance — four times
// the old compile-time owner-set cap — is committed through the public
// mutation API (the last batch incrementally, with the parent link
// asserted), then builds, answers Relate against independently computed
// pairwise ground truth, and answers Query on the cached universe. Point
// location on an Insert-derived arrangement of the same fixture is checked
// against the linear-scan oracle in internal/arrange.
func TestThousandRegionServing(t *testing.T) {
	const n = 1024
	ctx := context.Background()
	src := workload.ManyRegions(n)
	names := src.Names()

	db := NewInstance()
	applyRegions(t, db, src, names[:n-2])
	// Materialize the parent arrangement so the final batch derives
	// incrementally instead of falling back cold.
	if _, err := db.Snapshot().arrangement(ctx); err != nil {
		t.Fatal(err)
	}
	applyRegions(t, db, src, names[n-2:])

	s := db.Snapshot()
	if parent, added := s.c.parentLink(); parent == nil || len(added) != 2 {
		t.Fatalf("no parent link (added=%v) — the incremental path is not exercised", added)
	}
	if _, err := s.arrangement(ctx); err != nil {
		t.Fatalf("1024-region arrangement: %v", err)
	}

	// Relate, spot-checked against the two-region ground-truth builds
	// (fourint.Relate arranges just the pair, sharing nothing with the
	// 1024-region arrangement under test). The pairs cover indices far
	// past 256 on both generator regimes (disjoint lattice, widened
	// overlaps, stretched meets).
	for _, pair := range [][2]string{
		{"M00000", "M00001"}, {"M00000", "M00002"}, {"M00003", "M00035"},
		{"M00510", "M00511"}, {"M00765", "M00766"}, {"M01020", "M01021"},
		{"M00995", "M01023"}, {"M00960", "M00992"},
	} {
		got, err := s.Relate(pair[0], pair[1])
		if err != nil {
			t.Fatalf("Relate(%s, %s): %v", pair[0], pair[1], err)
		}
		want, err := fourint.Relate(src, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("Relate(%s, %s) = %v, want %v", pair[0], pair[1], got, want)
		}
	}

	// Query through the cached universe: a 4-intersection atom and a cell
	// quantifier, both touching regions past the old ceiling.
	for _, q := range []struct {
		src  string
		want bool
	}{
		{"overlap(M00000, M00001)", true},
		{"disjoint(M00000, M01023)", true},
		{"some cell r: subset(r, M00765) and subset(r, M00766)", true},
		{"some cell r: subset(r, M00000) and subset(r, M01023)", false},
	} {
		ok, err := s.Query(ctx, q.src)
		if err != nil {
			t.Fatalf("Query(%q): %v", q.src, err)
		}
		if ok != q.want {
			t.Fatalf("Query(%q) = %v, want %v", q.src, ok, q.want)
		}
	}
}
