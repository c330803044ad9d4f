package invariant

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

func restrict(in *spatial.Instance, names []string) *spatial.Instance {
	out := spatial.New()
	for _, n := range names {
		out.MustAdd(n, in.MustExt(n))
	}
	return out
}

func deltaCases() map[string]*spatial.Instance {
	return map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(3),
		"overlap_chain":  workload.OverlapChain(10),
		"nested_rings":   workload.NestedRings(7),
		"county_mesh":    workload.CountyMesh(3),
		"lens_stack":     workload.LensStack(8),
		"circle_pair":    workload.CirclePair(12),
		"sparse_scatter": workload.SparseScatter(40),
		"city_blocks":    workload.CityBlocks(4),
	}
}

// Property: the invariant derived via FromArrangementDelta — over a chain
// of incremental arrangements whose every parent invariant is itself a
// delta product — has, at every generation, a canonical encoding
// byte-identical to the cold invariant of the same arrangement. Trials
// alternate whether the parent was canonicalized before the delta (its
// component encodings reused) or after (nothing to reuse); both must agree
// with cold.
func TestFromArrangementDeltaMatchesCold(t *testing.T) {
	ctx := context.Background()
	for name, in := range deltaCases() {
		t.Run(name, func(t *testing.T) {
			names := in.Names()
			for trial := 0; trial < 2; trial++ {
				rng := rand.New(rand.NewSource(int64(len(name)*10 + trial)))
				order := append([]string(nil), names...)
				if trial == 1 {
					for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
						order[i], order[j] = order[j], order[i]
					}
				}
				k := 1 + rng.Intn(2)
				a, err := arrange.Build(restrict(in, order[:k]))
				if err != nil {
					t.Fatal(err)
				}
				parent, err := FromArrangement(a)
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
					sub := restrict(in, order[:k])
					next, err := arrange.Insert(ctx, a, sub, added...)
					if err != nil {
						t.Fatalf("insert %v: %v", added, err)
					}
					if k%2 == 0 {
						// Canonicalize the parent first so the delta has
						// component encodings to reuse.
						parent.Canonical()
					}
					inc, err := FromArrangementDelta(ctx, next, parent)
					if err != nil {
						t.Fatalf("FromArrangementDelta %v: %v", added, err)
					}
					cold, err := FromArrangement(next)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := inc.Canonical(), cold.Canonical(); got != want {
						t.Fatalf("trial %d: canonical encoding diverged after inserting %v (%d regions)\n inc: %.200s\ncold: %.200s",
							trial, added, k, got, want)
					}
					a, parent = next, inc
				}
			}
		})
	}
}

// compOf returns the component whose edges carry region name's boundary.
func compOf(t *T, name string) int {
	ri := sort.SearchStrings(t.Names, name)
	for _, ed := range t.Edges {
		if ed.Label.At(ri) == arrange.Boundary {
			return ed.Comp
		}
	}
	return -1
}

// A delta that leaves a component untouched must reuse the parent's
// encoding of it — also under a non-identity remap, since labels render by
// name — and a delta that encloses a component or nests inside one of its
// faces must not. Every case still agrees with cold byte for byte.
func TestDeltaReusesComponentEncodings(t *testing.T) {
	ctx := context.Background()
	parentIn := spatial.New().
		MustAdd("M", region.MustRect(0, 0, 10, 10)).
		MustAdd("N", region.MustRect(5, 5, 15, 15)).
		MustAdd("P", region.MustRect(200, 0, 210, 10))
	for _, tc := range []struct {
		name  string
		added region.Region
		fresh []string // regions whose component must be encoded cold
	}{
		{"far_away", region.MustRect(100, 100, 110, 110), nil},
		{"encloses", region.MustRect(-5, -5, 20, 20), []string{"M"}},
		{"nests_in_face", region.MustRect(1, 1, 2, 2), []string{"M"}},
		{"nests_in_curve", region.MustRect(202, 2, 204, 4), []string{"P"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := arrange.Build(parentIn)
			if err != nil {
				t.Fatal(err)
			}
			parent, err := FromArrangement(a)
			if err != nil {
				t.Fatal(err)
			}
			parent.Canonical()
			// "A" sorts before every parent name: the remap shifts them all.
			in := parentIn.Clone().MustAdd("A", tc.added)
			next, err := arrange.Insert(ctx, a, in, "A")
			if err != nil {
				t.Fatal(err)
			}
			if next.Prov() == nil || next.RegionIndex("M") == a.RegionIndex("M") {
				t.Fatal("inserting a name that sorts first should yield provenance under a non-identity remap")
			}
			inc, err := FromArrangementDelta(ctx, next, parent)
			if err != nil {
				t.Fatal(err)
			}
			fresh := map[int]bool{compOf(inc, "A"): true}
			for _, r := range tc.fresh {
				fresh[compOf(inc, r)] = true
			}
			pm, pp := compOf(parent, "M"), compOf(parent, "P")
			for idx := 0; idx < 2; idx++ {
				for _, r := range []string{"M", "P"} {
					ci, pci := compOf(inc, r), pm
					if r == "P" {
						pci = pp
					}
					got := inc.comps[idx][ci]
					if fresh[ci] && got != "" {
						t.Errorf("chirality %d: component of %s reused, want it encoded cold", idx, r)
					}
					if !fresh[ci] && got != parent.comps[idx][pci] {
						t.Errorf("chirality %d: component of %s not reused from the parent", idx, r)
					}
				}
			}
			cold, err := FromArrangement(next)
			if err != nil {
				t.Fatal(err)
			}
			if inc.Canonical() != cold.Canonical() {
				t.Fatal("canonical encoding with reused components diverged from cold")
			}
		})
	}
}

// FromArrangementDelta must refuse arrangements without provenance and
// parents from a different generation.
func TestDeltaRejectsForeignParents(t *testing.T) {
	ctx := context.Background()
	in := workload.OverlapChain(5)
	names := in.Names()
	sub := restrict(in, names[:3])
	a, err := arrange.Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := FromArrangement(a)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := arrange.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromArrangementDelta(ctx, cold, parent); err == nil {
		t.Fatal("cold-built arrangement (no provenance) must be rejected")
	}
	other, err := arrange.Build(sub)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := FromArrangement(other)
	if err != nil {
		t.Fatal(err)
	}
	next, err := arrange.Insert(ctx, a, in, names[3:]...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromArrangementDelta(ctx, next, foreign); err == nil {
		t.Fatal("parent invariant from a different generation must be rejected")
	}
	if _, err := FromArrangementDelta(ctx, next, nil); err == nil {
		t.Fatal("nil parent must be rejected")
	}
}
