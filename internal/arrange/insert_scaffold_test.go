package arrange

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// gridScaffold mirrors folang.GridScaffold over an explicit box: k+1
// vertical and k+1 horizontal lines spanning the box inflated by one unit.
// Anchoring it to the full instance's box keeps it fixed across a chain of
// inserts over growing subsets, exactly like the refined-universe use.
func gridScaffold(box geom.Box, k int) []geom.Seg {
	minX, minY := box.MinX.Sub(rat.One), box.MinY.Sub(rat.One)
	maxX, maxY := box.MaxX.Add(rat.One), box.MaxY.Add(rat.One)
	w, h := maxX.Sub(minX), maxY.Sub(minY)
	var segs []geom.Seg
	for i := 0; i <= k; i++ {
		t := rat.FromFrac(int64(i), int64(k))
		x := minX.Add(w.Mul(t))
		y := minY.Add(h.Mul(t))
		segs = append(segs,
			geom.Seg{A: geom.Pt{X: x, Y: minY}, B: geom.Pt{X: x, Y: maxY}},
			geom.Seg{A: geom.Pt{X: minX, Y: y}, B: geom.Pt{X: maxX, Y: y}})
	}
	return segs
}

// Property: inserting regions incrementally into a scaffolded arrangement
// — the scaffold anchored to the full instance's box, so it never moves —
// yields at every generation an arrangement cell-for-cell identical to the
// cold scaffolded build of the same region set, with provenance recorded
// like the unscaffolded path.
func TestInsertWithScaffoldMatchesColdBuild(t *testing.T) {
	ctx := context.Background()
	for name, in := range insertCases() {
		t.Run(name, func(t *testing.T) {
			box, ok := in.Box()
			if !ok {
				t.Fatal("instance has no box")
			}
			names := in.Names()
			for trial, k := range []int{1, 3} {
				scaffold := gridScaffold(box, k)
				rng := rand.New(rand.NewSource(int64(len(name)*100 + trial)))
				order := append([]string(nil), names...)
				if trial == 1 {
					rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				}
				n := 1 + rng.Intn(2)
				cur, err := BuildWithScaffold(subInstance(in, order[:n]), scaffold)
				if err != nil {
					t.Fatal(err)
				}
				for n < len(order) {
					batch := 1 + rng.Intn(3)
					if n+batch > len(order) {
						batch = len(order) - n
					}
					added := order[n : n+batch]
					n += batch
					sub := subInstance(in, order[:n])
					next, err := InsertWithScaffoldCtx(ctx, cur, sub, scaffold, added...)
					if err != nil {
						t.Fatalf("insert %v after %d regions: %v", added, n-batch, err)
					}
					p := next.Prov()
					if p == nil || p.Parent != cur {
						t.Fatalf("insert %v: provenance missing or pointing at the wrong parent", added)
					}
					validateArrangement(t, next, sub)
					cold, err := BuildWithScaffold(sub, scaffold)
					if err != nil {
						t.Fatal(err)
					}
					if cellFingerprint(next) != cellFingerprint(cold) || compFingerprint(next) != compFingerprint(cold) {
						t.Fatalf("k=%d: fingerprint diverged after inserting %v (%d regions)", k, added, n)
					}
					cur = next
				}
			}
		})
	}
}

// A scaffold that moved between generations — for grid scaffolds this is
// exactly a delta that grows the box anchoring the lines — must be
// rejected with ErrScaffoldMoved so callers fall back to a cold build.
func TestInsertWithScaffoldRejectsMovedScaffold(t *testing.T) {
	ctx := context.Background()
	in := workload.OverlapChain(6)
	names := in.Names()
	sub := subInstance(in, names[:4])
	box, _ := sub.Box()
	parent, err := BuildWithScaffold(sub, gridScaffold(box, 2))
	if err != nil {
		t.Fatal(err)
	}
	grown, _ := in.Box()
	for what, scaffold := range map[string][]geom.Seg{
		"lines anchored to a grown box": gridScaffold(grown, 2),
		"different refinement level":    gridScaffold(box, 3),
		"no scaffold at all":            nil,
	} {
		if _, err := InsertWithScaffoldCtx(ctx, parent, in, scaffold, names[4:]...); !errors.Is(err, ErrScaffoldMoved) {
			t.Fatalf("%s: got %v, want ErrScaffoldMoved", what, err)
		}
	}
	// The unchanged scaffold still derives fine from the same parent.
	if _, err := InsertWithScaffoldCtx(ctx, parent, in, gridScaffold(box, 2), names[4:]...); err != nil {
		t.Fatalf("unchanged scaffold rejected: %v", err)
	}
}

// Plain Insert must refuse scaffolded parents: it cannot validate that the
// scaffold geometry is still anchored where the parent's was.
func TestInsertRejectsScaffoldedParent(t *testing.T) {
	ctx := context.Background()
	in := workload.RectGrid(2)
	names := in.Names()
	sub := subInstance(in, names[:2])
	box, _ := in.Box()
	parent, err := BuildWithScaffold(sub, gridScaffold(box, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Insert(ctx, parent, in, names[2:]...); err == nil {
		t.Fatal("Insert accepted a scaffolded parent")
	}
}

// A scaffolded chain where a scaffold line is collinear with region
// borders (the grid anchored so interior lines land exactly on shared
// rectangle edges) must still match the cold build: coincident pieces
// merge owners on both construction paths.
func TestInsertWithScaffoldCoincidentLines(t *testing.T) {
	ctx := context.Background()
	in := spatial.New()
	// Four unit squares in a row on y ∈ [0, 2]; with the box inflated by
	// one, the k=2 mid lines land on x=2 and y=1 — x=2 is a shared border.
	mustAddRect(t, in, "A", 0, 0, 1, 2)
	mustAddRect(t, in, "B", 1, 0, 2, 2)
	mustAddRect(t, in, "C", 2, 0, 3, 2)
	mustAddRect(t, in, "D", 3, 0, 4, 2)
	box, _ := in.Box()
	scaffold := gridScaffold(box, 2)
	names := in.Names()
	cur, err := BuildWithScaffold(subInstance(in, names[:1]), scaffold)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(names); n++ {
		sub := subInstance(in, names[:n+1])
		next, err := InsertWithScaffoldCtx(ctx, cur, sub, scaffold, names[n])
		if err != nil {
			t.Fatal(err)
		}
		validateArrangement(t, next, sub)
		cold, err := BuildWithScaffold(sub, scaffold)
		if err != nil {
			t.Fatal(err)
		}
		if cellFingerprint(next) != cellFingerprint(cold) || compFingerprint(next) != compFingerprint(cold) {
			t.Fatalf("fingerprint diverged after inserting %s", names[n])
		}
		cur = next
	}
}

func mustAddRect(t *testing.T, in *spatial.Instance, name string, x1, y1, x2, y2 int64) {
	t.Helper()
	in.MustAdd(name, region.MustRect(x1, y1, x2, y2))
}
