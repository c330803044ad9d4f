package topodb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"topodb/internal/folang"
	"topodb/internal/region"
	"topodb/internal/spatial"
)

// refinedOrder reorders the instance's names so a small prefix (one name
// per box side, at most four) attains the full instance bounding box:
// applying that prefix first keeps the scaffold grid anchored, so every
// later Apply batch is eligible for the incremental refined path.
func refinedOrder(in *spatial.Instance) ([]string, int) {
	names := in.Names()
	box, ok := in.Box()
	if !ok {
		return names, len(names)
	}
	pin := make(map[string]bool)
	for side := 0; side < 4; side++ {
		for _, n := range names {
			b := in.MustExt(n).Box()
			hit := false
			switch side {
			case 0:
				hit = b.MinX.Cmp(box.MinX) == 0
			case 1:
				hit = b.MinY.Cmp(box.MinY) == 0
			case 2:
				hit = b.MaxX.Cmp(box.MaxX) == 0
			case 3:
				hit = b.MaxY.Cmp(box.MaxY) == 0
			}
			if hit {
				pin[n] = true
				break
			}
		}
	}
	ordered := make([]string, 0, len(names))
	for _, n := range names {
		if pin[n] {
			ordered = append(ordered, n)
		}
	}
	prefix := len(ordered)
	for _, n := range names {
		if !pin[n] {
			ordered = append(ordered, n)
		}
	}
	return ordered, prefix
}

// The refined (k > 0) leg of the incremental pipeline guarantee:
// interleaving random Apply batches whose deltas stay inside the instance
// bounding box, every generation's refined universe is byte-identical
// (canonical fingerprint) to a cold build of the same region set at the
// same k — for every workload generator, k ∈ {1, 2, 4}, and both sides of
// the shard threshold. The parent link is asserted at each step and the
// refined derivation counters afterwards, so the test demonstrably
// exercises the incremental path, not a silent cold fallback.
func TestIncrementalRefinedUniverseBytes(t *testing.T) {
	ctx := context.Background()
	for _, shard := range []struct {
		name      string
		threshold int
	}{
		{"monolithic", -1},
		{"sharded", 0},
	} {
		t.Run(shard.name, func(t *testing.T) {
			old := SetShardThreshold(shard.threshold)
			t.Cleanup(func() { SetShardThreshold(old) })
			for name, in := range equivCases() {
				t.Run(name, func(t *testing.T) {
					order, prefix := refinedOrder(in)
					if prefix == len(order) {
						t.Skip("every region pins the bounding box; no chain to run")
					}
					for ki, k := range []int{1, 2, 4} {
						rng := rand.New(rand.NewSource(int64(len(name)*10 + ki)))
						db := NewInstance()
						applyRegions(t, db, in, order[:prefix])
						if _, err := db.Snapshot().universe(ctx, k); err != nil {
							t.Fatal(err)
						}
						incBefore := derivCounters[derivUniverseRefinedIncremental].Load()
						coldBefore := derivCounters[derivUniverseRefinedCold].Load()
						n := prefix
						steps := 0
						for n < len(order) {
							batch := 1 + rng.Intn(3)
							if n+batch > len(order) {
								batch = len(order) - n
							}
							applyRegions(t, db, in, order[n:n+batch])
							n += batch
							steps++

							s := db.Snapshot()
							if parent, added := s.c.parentLink(); parent == nil || len(added) != batch {
								t.Fatalf("generation %d: no parent link (added=%v)", s.Gen(), added)
							}
							u, err := s.universe(ctx, k)
							if err != nil {
								t.Fatal(err)
							}
							if u.Refine() != k {
								t.Fatalf("universe reports refine %d, want %d", u.Refine(), k)
							}
							coldU, err := folang.NewUniverse(subSpatial(in, order[:n]), k)
							if err != nil {
								t.Fatal(err)
							}
							if u.Fingerprint() != coldU.Fingerprint() {
								t.Fatalf("k=%d: refined universe fingerprint diverged at %d regions", k, n)
							}
						}
						if got := derivCounters[derivUniverseRefinedIncremental].Load() - incBefore; got != uint64(steps) {
							t.Errorf("k=%d: %d incremental refined derivations, want %d", k, got, steps)
						}
						if got := derivCounters[derivUniverseRefinedCold].Load() - coldBefore; got != 0 {
							t.Errorf("k=%d: %d unexpected cold refined derivations", k, got)
						}
					}
				})
			}
		})
	}
}

// refinedFixture builds a db plus a parallel spatial.Instance mirror with
// a frame region pinning the bounding box, so in-box adds are eligible
// for the incremental refined path.
func refinedFixture(t *testing.T) (*Instance, *spatial.Instance) {
	t.Helper()
	db := NewInstance()
	mirror := spatial.New()
	add := func(name string, x1, y1, x2, y2 int64) {
		if err := db.AddRect(name, x1, y1, x2, y2); err != nil {
			t.Fatal(err)
		}
		mirror.MustAdd(name, region.MustRect(x1, y1, x2, y2))
	}
	add("frame", 0, 0, 200, 100)
	add("a", 10, 10, 40, 40)
	add("b", 30, 20, 70, 60)
	add("c", 120, 30, 160, 80)
	return db, mirror
}

// A bbox-growing delta moves every scaffold line, so the refined universe
// must fall back to the cold build — observable on the refined cold
// counter — and still match the cold fingerprint exactly.
func TestRefinedUniverseBoxGrowthFallsBackCold(t *testing.T) {
	ctx := context.Background()
	db, mirror := refinedFixture(t)
	if _, err := db.Snapshot().universe(ctx, 2); err != nil {
		t.Fatal(err)
	}

	// In-box delta: derives incrementally.
	inc := derivCounters[derivUniverseRefinedIncremental].Load()
	if err := db.AddRect("in1", 80, 70, 95, 90); err != nil {
		t.Fatal(err)
	}
	mirror.MustAdd("in1", region.MustRect(80, 70, 95, 90))
	u, err := db.Snapshot().universe(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := derivCounters[derivUniverseRefinedIncremental].Load() - inc; got != 1 {
		t.Fatalf("in-box delta: %d incremental refined derivations, want 1", got)
	}
	coldU, err := folang.NewUniverse(mirror, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.Fingerprint() != coldU.Fingerprint() {
		t.Fatal("in-box incremental refined universe diverged from cold")
	}

	// Box-growing delta: the incremental path must refuse (scaffold
	// moved) and the cold fallback must advance the cold counter.
	inc = derivCounters[derivUniverseRefinedIncremental].Load()
	cold := derivCounters[derivUniverseRefinedCold].Load()
	if err := db.AddRect("out1", 500, 20, 520, 50); err != nil {
		t.Fatal(err)
	}
	mirror.MustAdd("out1", region.MustRect(500, 20, 520, 50))
	s := db.Snapshot()
	if parent, added := s.c.parentLink(); parent == nil || len(added) != 1 {
		t.Fatalf("no parent link after out-of-box add (added=%v)", added)
	}
	u, err = s.universe(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := derivCounters[derivUniverseRefinedCold].Load() - cold; got != 1 {
		t.Fatalf("box-growing delta: %d cold refined derivations, want 1", got)
	}
	if got := derivCounters[derivUniverseRefinedIncremental].Load() - inc; got != 0 {
		t.Fatalf("box-growing delta: %d incremental refined derivations, want 0", got)
	}
	coldU, err = folang.NewUniverse(mirror, 2)
	if err != nil {
		t.Fatal(err)
	}
	if u.Fingerprint() != coldU.Fingerprint() {
		t.Fatal("cold-fallback refined universe diverged from cold build")
	}
}

// Concurrent refined readers racing a writer whose adds stay inside the
// frame's bounding box: every reader must observe a refined universe
// consistent with its snapshot's region set. Run under -race this
// exercises the k>0 parent link, the scaffold-equality check, and the
// provenance release on refined arrangements.
func TestRefinedUniverseStress(t *testing.T) {
	ctx := context.Background()
	db := NewInstance()
	if err := db.AddRect("frame", 0, 0, 2000, 20); err != nil {
		t.Fatal(err)
	}
	const writers = 24
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := db.Snapshot()
				u, err := s.universe(ctx, 2)
				if err != nil {
					t.Error(err)
					return
				}
				if u.Refine() != 2 {
					t.Errorf("stress reader saw refine %d, want 2", u.Refine())
					return
				}
				for _, n := range s.Names() {
					if u.Region(n) == nil {
						t.Errorf("refined universe is missing snapshot region %s", n)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		if err := db.AddRect(fmt.Sprintf("w%03d", w), int64(20*w+30), 5, int64(20*w+40), 15); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
