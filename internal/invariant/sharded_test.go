package invariant

import (
	"context"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// TestShardedCanonicalMatchesMonolithic pins the sharded pipeline's
// canonical invariant encodings to the monolithic path's, byte for byte,
// across every workload generator family. The instances are small, so
// the threshold is dropped to 0 to plan them as box-overlap components.
func TestShardedCanonicalMatchesMonolithic(t *testing.T) {
	old := arrange.SetShardThreshold(0)
	t.Cleanup(func() { arrange.SetShardThreshold(old) })
	for name, in := range map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(3),
		"overlap_chain":  workload.OverlapChain(6),
		"nested_rings":   workload.NestedRings(3),
		"county_mesh":    workload.CountyMesh(3),
		"lens_stack":     workload.LensStack(4),
		"sparse_scatter": workload.SparseScatter(32),
		"city_blocks":    workload.CityBlocks(3),
		"many_regions":   workload.ManyRegions(48),
		"metro_plain":    workload.MetroGrid(36, 3, 0),
		"metro_straddle": workload.MetroGrid(48, 2, 50),
	} {
		t.Run(name, func(t *testing.T) {
			mono, err := New(in)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			sh, err := arrange.BuildSharded(context.Background(), in)
			if err != nil {
				t.Fatalf("BuildSharded: %v", err)
			}
			a, err := arrange.Stitch(context.Background(), sh)
			if err != nil {
				t.Fatalf("Stitch: %v", err)
			}
			st, err := FromArrangementCtx(context.Background(), a)
			if err != nil {
				t.Fatalf("FromArrangementCtx: %v", err)
			}
			if st.Canonical() != mono.Canonical() {
				t.Fatalf("sharded canonical encoding diverges from monolithic (%d shards)", sh.NumShards())
			}
		})
	}
}
