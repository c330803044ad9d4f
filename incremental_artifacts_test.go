package topodb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/folang"
	"topodb/internal/invariant"
	"topodb/internal/region"
	"topodb/internal/spatial"
)

// The end-to-end guarantee behind the incremental mutation→query pipeline:
// interleaving random Apply batches, every generation's derived artifacts
// — the query universe and the topological invariant — are byte-identical
// (canonical fingerprints / canonical encodings) to a from-scratch build
// of the same region set, for every workload generator and on both sides
// of the shard threshold. The parent link is asserted at each step and the
// derivation counters afterwards, so the test demonstrably exercises the
// incremental invariant path, not a silent cold fallback — and counts the
// unrefined universe, one linear pass over the derived arrangement, as the
// cold build it is.
func TestIncrementalArtifactsBytes(t *testing.T) {
	ctx := context.Background()
	for _, shard := range []struct {
		name      string
		threshold int
	}{
		{"monolithic", -1}, // sharding disabled
		{"sharded", 0},     // every snapshot, parents included, shards
	} {
		t.Run(shard.name, func(t *testing.T) {
			old := arrange.SetShardThreshold(shard.threshold)
			t.Cleanup(func() { arrange.SetShardThreshold(old) })
			for name, in := range equivCases() {
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(len(name))))
					names := in.Names()
					db := NewInstance()
					applyRegions(t, db, in, names[:1])
					s0 := db.Snapshot()
					if _, err := s0.universe(ctx, 0); err != nil {
						t.Fatal(err)
					}
					if _, err := s0.invariantT(ctx); err != nil {
						t.Fatal(err)
					}
					uColdBefore := derivCounters[derivUniverseCold].Load()
					tIncBefore := derivCounters[derivInvariantIncremental].Load()
					k, steps := 1, 0
					for k < len(names) {
						batch := 1 + rng.Intn(3)
						if k+batch > len(names) {
							batch = len(names) - k
						}
						applyRegions(t, db, in, names[k:k+batch])
						k += batch
						steps++

						s := db.Snapshot()
						if parent, added := s.c.parentLink(); parent == nil || len(added) != batch {
							t.Fatalf("generation %d: no parent link (added=%v)", s.Gen(), added)
						}
						u, err := s.universe(ctx, 0)
						if err != nil {
							t.Fatal(err)
						}
						coldU, err := folang.NewUniverse(subSpatial(in, names[:k]), 0)
						if err != nil {
							t.Fatal(err)
						}
						if u.Fingerprint() != coldU.Fingerprint() {
							t.Fatalf("universe fingerprint diverged at %d regions", k)
						}
						ti, err := s.invariantT(ctx)
						if err != nil {
							t.Fatal(err)
						}
						coldT, err := invariant.New(subSpatial(in, names[:k]))
						if err != nil {
							t.Fatal(err)
						}
						if ti.Canonical() != coldT.Canonical() {
							t.Fatalf("canonical invariant diverged at %d regions", k)
						}
					}
					if got := derivCounters[derivUniverseCold].Load() - uColdBefore; got != uint64(steps) {
						t.Errorf("unrefined universe counted %d cold builds over %d delta generations, want one each", got, steps)
					}
					if derivCounters[derivInvariantIncremental].Load() == tIncBefore {
						t.Error("incremental invariant derivation never ran")
					}
				})
			}
		})
	}
}

// The incremental cutoff is fixed at 64 added regions; it used to be
// tunable through setters, and these three tests keep their names while
// pinning the fixed boundary for the artifacts each setter governed.

// Arrangement maintenance: beyond the cutoff the arrangement is rebuilt
// cold, at the cutoff it is maintained incrementally.
func TestSetIncrementalMaxKnob(t *testing.T) {
	checkIncrementalMaxCutoff(t,
		[]int{derivArrangementCold}, []int{derivArrangementIncremental})
}

// The invariant: cold beyond the cutoff, incremental at it. The k=0
// universe is one linear pass over the arrangement and counts cold on
// both sides.
func TestDerivedIncrementalMaxKnob(t *testing.T) {
	checkIncrementalMaxCutoff(t,
		[]int{derivInvariantCold}, []int{derivInvariantIncremental}, derivUniverseCold)
}

// The refined (k=2) universe: cold beyond the cutoff, incremental at it.
func TestRefinedDerivedIncrementalMaxKnob(t *testing.T) {
	checkIncrementalMaxCutoff(t,
		[]int{derivUniverseRefinedCold}, []int{derivUniverseRefinedIncremental})
}

// checkIncrementalMaxCutoff pins the fixed delta cutoff on both sides of
// the shard threshold: a batch of 65 added regions advances every cold
// counter and no incremental one, and a following batch of exactly 64
// in-box regions does the reverse; the always counters advance by one on
// both. The batch sizes are literals so the check pins the shipped
// boundary, not whatever incrementalMax says. Both generations match a
// fresh instance byte for byte, relation table included.
func checkIncrementalMaxCutoff(t *testing.T, cold, inc []int, always ...int) {
	ctx := context.Background()
	counts := func(kinds []int) []uint64 {
		out := make([]uint64, len(kinds))
		for i, k := range kinds {
			out[i] = derivCounters[k].Load()
		}
		return out
	}
	// artifacts materializes every gated artifact of s and returns their
	// canonical bytes: the k=0 and k=2 universe fingerprints, the
	// invariant encoding and the relation table.
	artifacts := func(t *testing.T, s *Snapshot) [4]string {
		t.Helper()
		u0, err := s.universe(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		u2, err := s.universe(ctx, 2)
		if err != nil {
			t.Fatal(err)
		}
		ti, err := s.invariantT(ctx)
		if err != nil {
			t.Fatal(err)
		}
		rels, err := s.relations(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// fmt prints maps in sorted key order.
		return [4]string{u0.Fingerprint(), u2.Fingerprint(), ti.Canonical(), fmt.Sprint(rels)}
	}
	for _, shard := range []struct {
		name      string
		threshold int
	}{
		{"monolithic", -1},
		{"sharded", 0},
	} {
		t.Run(shard.name, func(t *testing.T) {
			old := arrange.SetShardThreshold(shard.threshold)
			t.Cleanup(func() { arrange.SetShardThreshold(old) })

			// Four corner squares pin the bounding box, so the scaffold
			// grid stays anchored and every later add is in-box: only the
			// batch size decides between the cold and incremental paths.
			db := NewInstance()
			mirror := spatial.New()
			addBatch := func(rects map[string][4]int64) {
				t.Helper()
				if err := db.Apply(func(tx *Txn) error {
					for name, r := range rects {
						if err := tx.AddRect(name, r[0], r[1], r[2], r[3]); err != nil {
							return err
						}
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for name, r := range rects {
					mirror.MustAdd(name, region.MustRect(r[0], r[1], r[2], r[3]))
				}
			}
			addBatch(map[string][4]int64{
				"c0": {0, 0, 2, 2}, "c1": {108, 0, 110, 2},
				"c2": {0, 78, 2, 80}, "c3": {108, 78, 110, 80},
			})
			artifacts(t, db.Snapshot())

			// Disjoint 3x3 squares on a 16-wide lattice inside the frame.
			next := 0
			grid := func(n int) map[string][4]int64 {
				rects := make(map[string][4]int64, n)
				for ; n > 0; n-- {
					x, y := int64(10+6*(next%16)), int64(10+6*(next/16))
					rects[fmt.Sprintf("r%03d", next)] = [4]int64{x, y, x + 3, y + 3}
					next++
				}
				return rects
			}
			for _, step := range []struct {
				batch int
				moved []int // counters that must advance by one
				still []int // counters that must not move
			}{
				{65, append(cold, always...), inc},
				{64, append(inc, always...), cold},
			} {
				addBatch(grid(step.batch))
				s := db.Snapshot()
				if parent, added := s.c.parentLink(); parent == nil || len(added) != step.batch {
					t.Fatalf("batch of %d: no parent link (added=%d)", step.batch, len(added))
				}
				moved, still := counts(step.moved), counts(step.still)
				got := artifacts(t, s)
				for i, c := range counts(step.moved) {
					if c-moved[i] != 1 {
						t.Errorf("batch of %d: %v advanced by %d, want 1", step.batch, derivationRows[step.moved[i]], c-moved[i])
					}
				}
				for i, c := range counts(step.still) {
					if c != still[i] {
						t.Errorf("batch of %d: %v advanced by %d, want 0", step.batch, derivationRows[step.still[i]], c-still[i])
					}
				}
				if want := artifacts(t, Wrap(mirror.Clone()).Snapshot()); got != want {
					t.Fatalf("batch of %d: artifacts diverged from a fresh instance", step.batch)
				}
			}
		})
	}
}

// The fixed derivation-count rows must enumerate every (kind, mode) pair
// exactly once, in a stable order, including zero rows — serving tiers
// render them positionally.
func TestArtifactDerivationCountRows(t *testing.T) {
	rows := ArtifactDerivationCounts()
	want := []string{
		"arrangement/cold", "arrangement/incremental", "arrangement/aliased",
		"universe/cold",
		"universe/cold/refined", "universe/incremental/refined",
		"invariant/cold", "invariant/incremental",
		"sinvariant/cold",
	}
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		got := r.Kind + "/" + r.Mode
		if r.Refined {
			got += "/refined"
		}
		if got != want[i] {
			t.Fatalf("row %d = %s, want %s", i, got, want[i])
		}
	}
}

// Concurrent readers racing a writer over the parent-linked universe and
// invariant slots: every reader must observe internally consistent
// artifacts whose region sets match their snapshot's generation. Run
// under -race this exercises the genCache parent link, provenance
// release, and the canonMu guarding transported canonical starts.
func TestIncrementalArtifactStress(t *testing.T) {
	ctx := context.Background()
	db := NewInstance()
	if err := db.AddRect("base", 0, 0, 10, 10); err != nil {
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
				u, err := s.universe(ctx, 0)
				if err != nil {
					t.Error(err)
					return
				}
				for _, n := range s.Names() {
					if u.Region(n) == nil {
						t.Errorf("universe is missing snapshot region %s", n)
						return
					}
				}
				ti, err := s.invariantT(ctx)
				if err != nil {
					t.Error(err)
					return
				}
				if ti.Canonical() == "" {
					t.Error("empty canonical encoding")
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		if err := db.AddRect(fmt.Sprintf("w%03d", w), int64(20*w+20), 0, int64(20*w+30), 10); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
