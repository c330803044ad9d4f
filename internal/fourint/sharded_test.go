package fourint

import (
	"context"
	"reflect"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// forEachPlan runs f once with every instance planned as one shard and
// once with every instance planned as box-overlap components.
func forEachPlan(t *testing.T, f func(t *testing.T)) {
	for _, plan := range []struct {
		name      string
		threshold int
	}{{"one_shard", -1}, {"components", 0}} {
		t.Run(plan.name, func(t *testing.T) {
			old := arrange.SetShardThreshold(plan.threshold)
			t.Cleanup(func() { arrange.SetShardThreshold(old) })
			f(t)
		})
	}
}

func shardedOf(t *testing.T, in *spatial.Instance) *arrange.Sharded {
	t.Helper()
	sh, err := arrange.BuildSharded(context.Background(), in)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	return sh
}

// TestAllPairsShardedMatches checks the sharded relation table against the
// monolithic classifier on shard-friendly and shard-hostile workloads,
// under both plans.
func TestAllPairsShardedMatches(t *testing.T) {
	for name, in := range map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(3),
		"overlap_chain":  workload.OverlapChain(6),
		"county_mesh":    workload.CountyMesh(3),
		"sparse_scatter": workload.SparseScatter(32),
		"metro_straddle": workload.MetroGrid(48, 2, 50),
	} {
		t.Run(name, func(t *testing.T) {
			forEachPlan(t, func(t *testing.T) {
				want, err := AllPairs(in)
				if err != nil {
					t.Fatalf("AllPairs: %v", err)
				}
				got, err := AllPairsSharded(shardedOf(t, in), in.Boxes())
				if err != nil {
					t.Fatalf("AllPairsSharded: %v", err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatal("AllPairsSharded diverges from monolithic table")
				}
			})
		})
	}
}
