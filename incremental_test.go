package topodb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"topodb/internal/geom"
	"topodb/internal/invariant"
	"topodb/internal/rat"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// applyRegions commits the named regions of src onto db in one batch,
// staging the exact region values (the workload generators emit rational
// coordinates the public coordinate-based constructors cannot express).
func applyRegions(t *testing.T, db *Instance, src *spatial.Instance, names []string) {
	t.Helper()
	if err := db.Apply(func(tx *Txn) error {
		for _, n := range names {
			if err := tx.stage(n, src.MustExt(n), nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// The end-to-end guarantee behind incremental maintenance: interleaving
// random Apply batches, every generation's incrementally derived
// arrangement produces a canonical invariant encoding byte-identical to a
// from-scratch build of the same region set — for every workload
// generator. The genCache parent link is asserted at each step, so the
// test demonstrably exercises the incremental path, not a silent cold
// fallback.
func TestIncrementalGenerationsCanonicalBytes(t *testing.T) {
	for name, in := range equivCases() {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			names := in.Names()
			db := NewInstance()
			applyRegions(t, db, in, names[:1])
			if _, err := db.Invariant(); err != nil {
				t.Fatal(err)
			}
			k := 1
			for k < len(names) {
				batch := 1 + rng.Intn(3)
				if k+batch > len(names) {
					batch = len(names) - k
				}
				applyRegions(t, db, in, names[k:k+batch])
				k += batch

				s := db.Snapshot()
				if parent, added := s.c.parentLink(); parent == nil || len(added) != batch {
					t.Fatalf("generation %d: no parent link (added=%v) — incremental path not exercised", s.Gen(), added)
				}
				inc, err := s.Invariant()
				if err != nil {
					t.Fatal(err)
				}
				cold, err := invariant.New(subSpatial(in, names[:k]))
				if err != nil {
					t.Fatal(err)
				}
				if inc.Canonical() != cold.Canonical() {
					t.Fatalf("canonical encoding diverged at %d regions", k)
				}
			}
		})
	}
}

// equivCases is the generator matrix the incremental equivalence tests run
// over: one instance per workload generator.
func equivCases() map[string]*spatial.Instance {
	return map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(4),
		"overlap_chain":  workload.OverlapChain(12),
		"nested_rings":   workload.NestedRings(8),
		"county_mesh":    workload.CountyMesh(4),
		"lens_stack":     workload.LensStack(10),
		"circle_pair":    workload.CirclePair(16),
		"sparse_scatter": workload.SparseScatter(60),
		"city_blocks":    workload.CityBlocks(6),
	}
}

func subSpatial(in *spatial.Instance, names []string) *spatial.Instance {
	out := spatial.New()
	for _, n := range names {
		out.MustAdd(n, in.MustExt(n))
	}
	return out
}

// Incrementally merged relation tables equal the from-scratch computation
// at every generation.
func TestIncrementalRelationsMatch(t *testing.T) {
	in := workload.SparseScatter(30)
	names := in.Names()
	db := NewInstance()
	applyRegions(t, db, in, names[:10])
	if _, err := db.AllRelations(); err != nil {
		t.Fatal(err)
	}
	for k := 10; k < len(names); k += 4 {
		hi := k + 4
		if hi > len(names) {
			hi = len(names)
		}
		applyRegions(t, db, in, names[k:hi])
		got, err := db.AllRelations()
		if err != nil {
			t.Fatal(err)
		}
		want, err := Wrap(subSpatial(in, names[:hi])).AllRelations()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("at %d regions: %d pairs, want %d", hi, len(got), len(want))
		}
		for pair, rel := range want {
			if got[pair] != rel {
				t.Fatalf("at %d regions: %v = %v, want %v", hi, pair, got[pair], rel)
			}
		}
	}
}

// Replacing a region invalidates the delta: the next generation must not
// link a parent, and its artifacts are still correct.
func TestReplacementFallsBackToColdBuild(t *testing.T) {
	db := NewInstance()
	if err := db.AddRect("A", 0, 0, 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRect("B", 2, 2, 6, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Invariant(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRect("A", 1, 1, 5, 5); err != nil { // replacement
		t.Fatal(err)
	}
	s := db.Snapshot()
	if parent, _ := s.c.parentLink(); parent != nil {
		t.Fatal("replacement delta must not link a parent generation")
	}
	rel, err := s.Relate("A", "B")
	if err != nil || rel != Overlap {
		t.Fatalf("post-replacement Relate = %v, %v", rel, err)
	}
}

// A cold query under an already-expired deadline aborts the arrangement
// build itself (ErrCanceled, cause preserved) without poisoning the
// generation: the next query on the same snapshot rebuilds and succeeds.
func TestColdQueryDeadlineCancelsBuild(t *testing.T) {
	db := Wrap(workload.SparseScatter(60))
	s := db.Snapshot()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := s.Query(ctx, "some cell r: subset(r, S0000)")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("expected ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cause lost: %v", err)
	}
	ok, err := s.Query(context.Background(), "some cell r: subset(r, S0000)")
	if err != nil || !ok {
		t.Fatalf("query after canceled build = %v, %v", ok, err)
	}
}

// Stress: concurrent snapshot readers — queries, relation lookups, and
// FaceOfPoint-heavy point stabs through the shared point-location index —
// against a writer issuing single-region Apply batches. Every reader
// checks it observes a fully derived generation: the arrangement's region
// set, label widths and face count must all be mutually consistent with
// the snapshot's frozen name table. Run under -race in CI.
func TestIncrementalSnapshotStress(t *testing.T) {
	const (
		writerBatches = 30
		readers       = 6
	)
	db := NewInstance()
	if err := db.AddRect("base0", 0, 0, 10, 10); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRect("base1", 5, 5, 15, 15); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < writerBatches; i++ {
			x := int64(3 * i)
			if err := db.Apply(func(tx *Txn) error {
				return tx.AddRect(fmt.Sprintf("w%03d", i), x, x, x+8, x+8)
			}); err != nil {
				errCh <- err
				return
			}
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			ctx := context.Background()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := db.Snapshot()
				names := s.Names()
				a, err := s.arrangement(ctx)
				if err != nil {
					errCh <- err
					return
				}
				// A partially derived generation would show up as a
				// mismatch between the frozen name table and the
				// arrangement's own view of the region set.
				if len(a.Names) != len(names) {
					errCh <- fmt.Errorf("reader %d: arrangement has %d regions, snapshot %d", g, len(a.Names), len(names))
					return
				}
				for i, n := range names {
					if a.Names[i] != n {
						errCh <- fmt.Errorf("reader %d: name %d = %q, snapshot %q", g, i, a.Names[i], n)
						return
					}
				}
				for fi := range a.Faces {
					if a.Faces[fi].Label.Len() != len(names) {
						errCh <- fmt.Errorf("reader %d: face %d label width %d, want %d", g, fi, a.Faces[fi].Label.Len(), len(names))
						return
					}
				}
				// FaceOfPoint-heavy phase: stab through the persistent
				// index; answers must be consistent with the face labels.
				for i := 0; i < 20; i++ {
					p := geom.Pt{
						X: rat.FromFrac(int64(rng.Intn(200))*2+1, 2),
						Y: rat.FromFrac(int64(rng.Intn(200))*2+1, 2),
					}
					fi, err := a.FaceOfPoint(p)
					if err != nil {
						continue // on the skeleton: legitimate
					}
					if fi < 0 || fi >= len(a.Faces) {
						errCh <- fmt.Errorf("reader %d: face index %d out of range", g, fi)
						return
					}
				}
				if rel, err := s.Relate("base0", "base1"); err != nil || rel != Overlap {
					errCh <- fmt.Errorf("reader %d: Relate = %v, %v", g, rel, err)
					return
				}
				if ok, err := s.Query(ctx, "overlap(base0, base1)"); err != nil || !ok {
					errCh <- fmt.Errorf("reader %d: query = %v, %v", g, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if got, want := len(db.Names()), 2+writerBatches; got != want {
		t.Fatalf("final region count %d, want %d", got, want)
	}
}

// An empty batch under a canceled context must not fabricate a zero-entry
// BatchError (whose Error() indexes its first element); the plain typed
// cancellation error comes back instead.
func TestEmptyBatchCanceled(t *testing.T) {
	db := Wrap(workload.OverlapChain(4))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := db.Snapshot().QueryBatch(ctx, nil)
	if len(res) != 0 {
		t.Fatalf("empty batch returned %d results", len(res))
	}
	if err == nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	_ = err.Error() // must not panic
}
