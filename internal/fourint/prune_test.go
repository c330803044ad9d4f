package fourint

import (
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// allPairsExhaustive is the unpruned oracle for AllPairs: every ordered
// pair of distinct regions, box-disjoint or not, is classified from its
// full 4-intersection matrix scan.
func allPairsExhaustive(t *testing.T, in *spatial.Instance) map[[2]string]Relation {
	t.Helper()
	a, err := arrange.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[[2]string]Relation)
	for i, ni := range a.Names {
		for j, nj := range a.Names {
			if i == j {
				continue
			}
			r, err := Classify(MatrixOf(a, i, j))
			if err != nil {
				t.Fatalf("%s vs %s: %v", ni, nj, err)
			}
			out[[2]string{ni, nj}] = r
		}
	}
	return out
}

// The bounding-box prune must be invisible in the output: AllPairs, which
// answers box-disjoint pairs without a matrix scan and derives each
// reverse direction by Inverse, equals the exhaustive per-pair oracle on
// every workload generator.
func TestBoxPruneRelationsIdentical(t *testing.T) {
	for name, in := range map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(4),
		"overlap_chain":  workload.OverlapChain(12),
		"nested_rings":   workload.NestedRings(8),
		"county_mesh":    workload.CountyMesh(4),
		"lens_stack":     workload.LensStack(10),
		"circle_pair":    workload.CirclePair(16),
		"sparse_scatter": workload.SparseScatter(60),
		"city_blocks":    workload.CityBlocks(6),
	} {
		t.Run(name, func(t *testing.T) {
			got, err := AllPairs(in)
			if err != nil {
				t.Fatal(err)
			}
			want := allPairsExhaustive(t, in)
			if len(got) != len(want) {
				t.Fatalf("map sizes differ: %d pruned vs %d exhaustive", len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("%v: pruned %v, exhaustive %v", k, got[k], v)
				}
			}
		})
	}
}
