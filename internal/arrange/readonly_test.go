package arrange_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/invariant"
	"topodb/internal/region"
	"topodb/internal/workload"
)

// A multi-shard stitch is read-only: Stitch and StitchInc copy none of
// Insert's construction caches, and the name map is built only by the
// first RegionIndex, which neither the invariant (cold or derived from the
// parent's) nor its canonical encoding calls. Concurrent first lookups
// share one build (run under -race).
func TestStitchIsReadOnly(t *testing.T) {
	defer arrange.SetShardThreshold(arrange.SetShardThreshold(0))
	ctx := context.Background()
	in := workload.MetroGrid(36, 3, 0)
	parentSh, err := arrange.BuildSharded(ctx, in)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	if parentSh.NumShards() < 2 {
		t.Fatalf("%d shards, want several", parentSh.NumShards())
	}
	parentSt, err := arrange.Stitch(ctx, parentSh)
	if err != nil {
		t.Fatalf("Stitch: %v", err)
	}
	check := func(what string, st *arrange.Arrangement) {
		t.Helper()
		if noCaches, noNameMap := arrange.ReadOnly(st); !noCaches || !noNameMap {
			t.Fatalf("%s: no construction caches %v, no name map %v; want both", what, noCaches, noNameMap)
		}
	}
	check("Stitch", parentSt)
	parentT, err := invariant.FromArrangementCtx(ctx, parentSt)
	if err != nil {
		t.Fatalf("FromArrangementCtx: %v", err)
	}
	parentT.Canonical()
	check("Stitch read by the invariant", parentSt)

	child := in.Clone()
	child.MustAdd("E", region.MustRect(1, 1, 2, 2)) // inside the first district
	sh, err := arrange.InsertSharded(ctx, parentSh, child, "E")
	if err != nil {
		t.Fatalf("InsertSharded: %v", err)
	}
	st, err := arrange.StitchInc(ctx, sh, parentSh, parentSt)
	if err != nil {
		t.Fatalf("StitchInc: %v", err)
	}
	if st.Prov() == nil {
		t.Fatal("StitchInc carries no provenance")
	}
	check("StitchInc", st)
	childT, err := invariant.FromArrangementDelta(ctx, st, parentT)
	if err != nil {
		t.Fatalf("FromArrangementDelta: %v", err)
	}
	childT.Canonical()
	check("StitchInc read by the invariant", st)

	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, n := range st.Names {
				if got := st.RegionIndex(n); got != i {
					errs[g] = fmt.Errorf("RegionIndex(%q) = %d, want %d", n, got, i)
					return
				}
			}
			if got := st.RegionIndex("absent"); got != -1 {
				errs[g] = fmt.Errorf("RegionIndex of an absent name = %d, want -1", got)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, noNameMap := arrange.ReadOnly(st); noNameMap {
		t.Fatal("RegionIndex answered without building the name map")
	}
}
