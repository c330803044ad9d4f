package arrange

import (
	"context"
	"runtime"
	"testing"

	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// metroStitchCase is the n=2500 metro mosaic (278 districts of 3×3
// overlapping blocks) with its sharded artifact built.
func metroStitchCase(tb testing.TB) (*spatial.Instance, *Sharded) {
	tb.Helper()
	in := workload.MetroGrid(2500, 3, 0)
	sh, err := BuildSharded(context.Background(), in)
	if err != nil {
		tb.Fatalf("BuildSharded: %v", err)
	}
	return in, sh
}

// TestStitchLabelStorageSparse pins the stitch's cost to the cells' label
// support rather than cells × regions: the stitched arrangement holds
// exactly its shards' label entries, and one Stitch allocates well under
// a dense label row (2.5 KB at n=2500) per stitched cell.
func TestStitchLabelStorageSparse(t *testing.T) {
	_, sh := metroStitchCase(t)
	st, err := Stitch(context.Background(), sh)
	if err != nil {
		t.Fatalf("Stitch: %v", err)
	}
	want := 0
	for _, sub := range sh.Subs {
		want += sub.labelEntries()
	}
	if got := st.labelEntries(); got != want {
		t.Fatalf("stitched arrangement holds %d label entries, its shards %d", got, want)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err = Stitch(context.Background(), sh)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Stitch: %v", err)
	}
	cells := len(st.Verts) + len(st.Edges) + len(st.Faces)
	perCell := float64(after.TotalAlloc-before.TotalAlloc) / float64(cells)
	t.Logf("%d regions, %d stitched cells, %.0f B allocated per cell", len(st.Names), cells, perCell)
	if perCell >= 1024 {
		t.Fatalf("Stitch allocated %.0f B per stitched cell, want < 1 KB", perCell)
	}
}

// BenchmarkStitchIncMetro times the per-generation global stitch on the
// n=2500 metro mosaic (278 districts of 3×3 blocks, the metro_edit shape)
// after one in-district add.
func BenchmarkStitchIncMetro(b *testing.B) {
	in, parentSh := metroStitchCase(b)
	benchStitchInc(b, in, parentSh, region.MustRect(1, 1, 6, 3)) // inside the first district
}

// BenchmarkStitchIncMetroBlocks is BenchmarkStitchIncMetro on the
// metro_invariant shape: 2,500 one-block districts, so 2,500 shards.
func BenchmarkStitchIncMetroBlocks(b *testing.B) {
	in := workload.MetroGrid(2500, 1, 0)
	parentSh, err := BuildSharded(context.Background(), in)
	if err != nil {
		b.Fatalf("BuildSharded: %v", err)
	}
	benchStitchInc(b, in, parentSh, region.MustRect(1, 1, 2, 2)) // inside the first block
}

// benchStitchInc adds r to in as "E00000": InsertSharded runs once,
// outside the timer, and each iteration is one StitchInc against the
// parent's stitch.
func benchStitchInc(b *testing.B, in *spatial.Instance, parentSh *Sharded, r region.Region) {
	ctx := context.Background()
	parentSt, err := Stitch(ctx, parentSh)
	if err != nil {
		b.Fatal(err)
	}
	child := in.Clone()
	child.MustAdd("E00000", r)
	sh, err := InsertSharded(ctx, parentSh, child, "E00000")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StitchInc(ctx, sh, parentSh, parentSt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertShardedMetro times the per-generation sharded derivation
// on the n=2500 metro mosaic: each iteration is one InsertSharded of an
// in-district add, which derives the child's plan from the parent's,
// aliases every untouched shard and Inserts into the one it changes.
func BenchmarkInsertShardedMetro(b *testing.B) {
	ctx := context.Background()
	in, parentSh := metroStitchCase(b)
	child := in.Clone()
	child.MustAdd("E00000", region.MustRect(1, 1, 6, 3)) // inside the first district
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := InsertSharded(ctx, parentSh, child, "E00000"); err != nil {
			b.Fatal(err)
		}
	}
}

// A one-region InsertSharded into a component plan derives the child's
// plan from the parent's: in total it allocates less than the cold
// planner alone (PlanShardsBoxes over in.Boxes()) would, so it cannot
// have re-planned the instance.
func TestInsertShardedSkipsColdPlanner(t *testing.T) {
	ctx := context.Background()
	in, parentSh := metroStitchCase(t)
	child := in.Clone()
	child.MustAdd("E00000", region.MustRect(1, 1, 6, 3)) // inside the first district
	cold := testing.AllocsPerRun(3, func() { PlanShardsBoxes(child.Names(), child.Boxes()) })
	derived := testing.AllocsPerRun(3, func() {
		if _, err := InsertSharded(ctx, parentSh, child, "E00000"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("InsertSharded: %.0f allocs; the cold planner alone: %.0f", derived, cold)
	if derived >= cold {
		t.Fatalf("InsertSharded made %.0f allocations, at least the cold planner's %.0f", derived, cold)
	}
}
