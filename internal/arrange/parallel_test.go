package arrange

import (
	"context"
	"runtime"
	"testing"

	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// forceWorkers raises GOMAXPROCS so par.Shards hands out real worker
// shards even on single-CPU machines (goroutines timeslice); the old value
// is restored via t.Cleanup.
func forceWorkers(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// collectSegs gathers the owned boundary segments of an instance exactly as
// BuildWithScaffold does (owner singletons interned in a fresh shared
// pool), so the split paths can be compared in isolation.
func collectSegs(t *testing.T, in *spatial.Instance) (*OwnerPool, []ownedSeg) {
	t.Helper()
	pool := NewOwnerPool()
	var segs []ownedSeg
	for i, n := range in.Names() {
		own := pool.With(NoOwners, i)
		for _, s := range in.MustExt(n).Boundary() {
			segs = append(segs, ownedSeg{s, own})
		}
	}
	if len(segs) < parallelPairMin {
		t.Fatalf("fixture too small to exercise the parallel path: %d segments", len(segs))
	}
	return pool, segs
}

// TestParallelSplitMatchesSequential checks that the worker-pool cut pass
// produces byte-for-byte the piece list of the sequential reference loop:
// same pieces, same order, same merged owner sets.
func TestParallelSplitMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   *spatial.Instance
	}{
		{"lens_stack", workload.LensStack(16)},
		{"overlap_chain", workload.OverlapChain(16)},
		{"county_mesh", workload.CountyMesh(4)},
		{"circle_pair", workload.CirclePair(32)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forceWorkers(t)
			pool, segs := collectSegs(t, tc.in)
			seqCuts, err := findCutsSweep(context.Background(), segs, false)
			if err != nil {
				t.Fatal(err)
			}
			parlCuts, err := findCutsSweep(context.Background(), segs, true)
			if err != nil {
				t.Fatal(err)
			}
			seq := assemblePieces(pool, segs, seqCuts)
			parl := assemblePieces(pool, segs, parlCuts)
			if len(seq) != len(parl) {
				t.Fatalf("piece counts differ: sequential %d, parallel %d", len(seq), len(parl))
			}
			for i := range seq {
				if !seq[i].s.A.Equal(parl[i].s.A) || !seq[i].s.B.Equal(parl[i].s.B) || seq[i].o != parl[i].o {
					t.Fatalf("piece %d differs: sequential %v/%v owners=%b, parallel %v/%v owners=%b",
						i, seq[i].s.A, seq[i].s.B, seq[i].o, parl[i].s.A, parl[i].s.B, parl[i].o)
				}
			}
		})
	}
}

// TestParallelBuildDeterministic builds the same arrangement repeatedly and
// checks the full cell complex is identical each time — the parallel cut
// pass must not leak scheduling order into vertex/edge/face numbering.
func TestParallelBuildDeterministic(t *testing.T) {
	forceWorkers(t)
	in := workload.LensStack(16)
	ref, err := Build(in)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		a, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		rv, re, rf := ref.Stats()
		av, ae, af := a.Stats()
		if rv != av || re != ae || rf != af {
			t.Fatalf("round %d: stats differ: (%d,%d,%d) vs (%d,%d,%d)", round, rv, re, rf, av, ae, af)
		}
		for i := range ref.Verts {
			if !ref.Verts[i].P.Equal(a.Verts[i].P) {
				t.Fatalf("round %d: vertex %d moved", round, i)
			}
		}
		for i := range ref.Edges {
			re, ae := ref.Edges[i], a.Edges[i]
			if re.V1 != ae.V1 || re.V2 != ae.V2 || re.Owners != ae.Owners ||
				re.Label.Key() != ae.Label.Key() {
				t.Fatalf("round %d: edge %d differs", round, i)
			}
		}
		for i := range ref.Faces {
			if ref.Faces[i].Label.Key() != a.Faces[i].Label.Key() {
				t.Fatalf("round %d: face %d label differs", round, i)
			}
		}
	}
}
