package arrange

import (
	"context"
	"testing"

	"topodb/internal/rat"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// nestScan is nest's oracle: the nesting rule as a scan of every face for
// one component, O(components × faces) over an arrangement. The parent is
// the innermost (smallest-Area2) bounded face of another component whose
// primary walk encloses the component's root vertex, or the exterior face.
func nestScan(a *Arrangement, ci int) int {
	p := a.Verts[a.Comps[ci].RootVertex].P
	best := a.Exterior
	var bestArea rat.R
	for fi := range a.Faces {
		f := &a.Faces[fi]
		if !f.Bounded || f.Comp == ci || !a.walkContains(f.Walks[0], p) {
			continue
		}
		if best == a.Exterior || f.Area2.Less(bestArea) {
			best, bestArea = fi, f.Area2
		}
	}
	return best
}

// checkNesting fails unless every component's parent face is the scan's,
// and returns how many components nest in a bounded face.
func checkNesting(t *testing.T, what string, a *Arrangement) int {
	t.Helper()
	nested := 0
	for ci := range a.Comps {
		want := nestScan(a, ci)
		if got := a.Comps[ci].ParentFace; got != want {
			t.Fatalf("%s: component %d nests in face %d, the scan finds %d", what, ci, got, want)
		}
		if want != a.Exterior {
			nested++
		}
	}
	return nested
}

// nest must give every component the scan's parent face, in the cold build
// of every workload generator and the courtyard fixture, and in an Insert
// of each instance's last regions into the rest.
func TestNestMatchesScan(t *testing.T) {
	ctx := context.Background()
	nested := 0
	for name, in := range map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(4),
		"overlap_chain":  workload.OverlapChain(8),
		"nested_rings":   workload.NestedRings(6),
		"county_mesh":    workload.CountyMesh(3),
		"lens_stack":     workload.LensStack(5),
		"sparse_scatter": workload.SparseScatter(200),
		"city_blocks":    workload.CityBlocks(3),
		"many_regions":   workload.ManyRegions(64),
		"circle_pair":    workload.CirclePair(12),
		"metro_grid":     workload.MetroGrid(36, 3, 50),
		"nested_islands": nestedIslands(),
	} {
		t.Run(name, func(t *testing.T) {
			cold, err := Build(in)
			if err != nil {
				t.Fatal(err)
			}
			nested += checkNesting(t, "cold", cold)
			names := in.Names()
			if len(names) < 2 {
				return
			}
			k := max(1, len(names)-3)
			parent, err := Build(subInstance(in, names[:k]))
			if err != nil {
				t.Fatal(err)
			}
			inc, err := Insert(ctx, parent, in, names[k:]...)
			if err != nil {
				t.Fatal(err)
			}
			nested += checkNesting(t, "insert", inc)
		})
	}
	if nested == 0 && !t.Failed() {
		t.Fatal("no component nests in a bounded face: the check is vacuous")
	}
}
