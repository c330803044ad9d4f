package topodb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"topodb/internal/arrange"
	"topodb/internal/folang"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// forceSharding drops the shard threshold to 0 for one test, restoring it
// after — every snapshot of any size takes the sharded pipeline.
func forceSharding(t *testing.T) {
	t.Helper()
	old := arrange.SetShardThreshold(0)
	t.Cleanup(func() { arrange.SetShardThreshold(old) })
}

// TestShardedPublicAPIMatchesMonolithic pins the public API's answers on
// the sharded pipeline to the monolithic path's: relations, the canonical
// invariant encoding, and query evaluation must be unaffected by the
// threshold knob.
func TestShardedPublicAPIMatchesMonolithic(t *testing.T) {
	in := workload.MetroGrid(48, 2, 50)
	mono := Wrap(in.Clone())
	shrd := Wrap(in.Clone())

	old := arrange.SetShardThreshold(-1) // monolithic everywhere
	monoRels, errA := mono.AllRelations()
	monoInv, errB := mono.Invariant()
	arrange.SetShardThreshold(0) // sharded everywhere
	shrdRels, errC := shrd.AllRelations()
	shrdInv, errD := shrd.Invariant()
	arrange.SetShardThreshold(old)
	for _, err := range []error{errA, errB, errC, errD} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(monoRels) != len(shrdRels) {
		t.Fatalf("relation table sizes diverge: %d vs %d", len(shrdRels), len(monoRels))
	}
	for k, v := range monoRels {
		if shrdRels[k] != v {
			t.Fatalf("relation %v: sharded %v, monolithic %v", k, shrdRels[k], v)
		}
	}
	if shrdInv.t.Canonical() != monoInv.t.Canonical() {
		t.Fatalf("canonical invariant encodings diverge between sharded and monolithic paths")
	}

	forceSharding(t)
	names := in.Names()
	q := fmt.Sprintf("overlap(%s, %s)", names[0], names[1])
	gotQ, err1 := shrd.Query(q)
	wantQ, err2 := mono.Query(q)
	if err1 != nil || err2 != nil || gotQ != wantQ {
		t.Fatalf("query diverges: sharded (%v, %v), monolithic (%v, %v)", gotQ, err1, wantQ, err2)
	}
	r1, err1 := shrd.Relate(names[0], names[1])
	r2, err2 := mono.Relate(names[0], names[1])
	if err1 != nil || err2 != nil || r1 != r2 {
		t.Fatalf("Relate diverges: sharded (%v, %v), monolithic (%v, %v)", r1, err1, r2, err2)
	}
}

// TestShardedIncrementalAliasesAcrossGenerations checks the cache-level
// delta path end-to-end: a pure extension's sharded artifact aliases every
// untouched shard from the parent generation (BuildNanos 0) and the
// relation table stays correct.
func TestShardedIncrementalAliasesAcrossGenerations(t *testing.T) {
	forceSharding(t)
	db := Wrap(workload.MetroGrid(36, 3, 0)) // 4 disjoint districts
	if _, err := db.Snapshot().AllRelations(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRect("Zz_far", 10000, 10000, 10004, 10004); err != nil {
		t.Fatal(err)
	}
	s := db.Snapshot()
	rels, err := s.AllRelations()
	if err != nil {
		t.Fatal(err)
	}
	if r := rels[[2]string{"Mg000000", "Zz_far"}]; r != Disjoint {
		t.Fatalf("far region relation = %v, want Disjoint", r)
	}
	stats, ok := s.ShardStats()
	if !ok {
		t.Fatalf("ShardStats not available after sharded build")
	}
	if stats.Shards != 5 {
		t.Fatalf("want 5 shards after extension, got %d", stats.Shards)
	}
	aliased := 0
	for _, ns := range stats.BuildNanos {
		if ns == 0 {
			aliased++
		}
	}
	if aliased != 4 {
		t.Fatalf("want 4 aliased (0ns) shards, got %d of %v", aliased, stats.BuildNanos)
	}
}

// TestCanceledShardedBuildVacatesShardSlots mirrors the canceled-cold-
// build coverage for the sharded pipeline: the whole sharded build lives
// in one slot, a build abandoned by its context vacates it, and the next
// requester rebuilds from scratch into it.
func TestCanceledShardedBuildVacatesShardSlots(t *testing.T) {
	forceSharding(t)
	db := Wrap(workload.MetroGrid(36, 3, 0))
	s := db.Snapshot()
	key := artifactKey{kind: shardedKind}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.sharded(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sharded build: %v, want context.Canceled in chain", err)
	}
	s.c.mu.Lock()
	_, survived := s.c.entries[key]
	s.c.mu.Unlock()
	if survived {
		t.Fatalf("sharded slot survived a canceled build")
	}

	// A live requester rebuilds cleanly into the vacated slot.
	sh, err := s.sharded(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sh.NumShards() != 4 {
		t.Fatalf("rebuilt sharded artifact has %d shards, want 4", sh.NumShards())
	}
	if v, ok := s.c.completed(key); !ok || v != sh {
		t.Fatalf("sharded slot does not hold the rebuilt artifact")
	}
}

// TestUnlinkedStitchCountsCold drives the stitched arrangement's delta
// route to a stitch that no shard links to the parent's: one region
// bridges two 70-region clusters, so the merged shard's own delta exceeds
// the per-shard Insert cutoff and that shard — the only one — rebuilds
// cold. The stitch then carries no provenance: it must count as a cold
// derivation and still match a cold build.
func TestUnlinkedStitchCountsCold(t *testing.T) {
	forceSharding(t)
	ctx := context.Background()
	in := spatial.New()
	for i := int64(0); i < 70; i++ {
		in.MustAdd(fmt.Sprintf("a%03d", i), region.MustRect(2*i, 0, 2*i+3, 3))
		in.MustAdd(fmt.Sprintf("b%03d", i), region.MustRect(1000+2*i, 0, 1000+2*i+3, 3))
	}
	db := NewInstance()
	applyRegions(t, db, in, in.Names())
	if _, err := db.Snapshot().arrangement(ctx); err != nil {
		t.Fatal(err)
	}
	in.MustAdd("bridge", region.MustRect(100, 1, 1100, 20))
	applyRegions(t, db, in, []string{"bridge"})

	s := db.Snapshot()
	cold := derivCounters[derivArrangementCold].Load()
	inc := derivCounters[derivArrangementIncremental].Load()
	a, err := s.arrangement(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a.Prov() != nil {
		t.Fatalf("bridged stitch carries provenance; the merged shard should have rebuilt cold")
	}
	if dc, di := derivCounters[derivArrangementCold].Load()-cold, derivCounters[derivArrangementIncremental].Load()-inc; dc != 1 || di != 0 {
		t.Fatalf("unlinked stitch counted %d cold, %d incremental; want 1, 0", dc, di)
	}
	u, err := s.universe(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	coldU, err := folang.NewUniverse(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if u.Fingerprint() != coldU.Fingerprint() {
		t.Fatalf("universe over the unlinked stitch diverged from a cold build")
	}
}

// TestShardedCancelUnderConcurrentApply races canceled sharded builds
// against writers extending the instance — the -race companion of the
// vacate test: short-deadline readers keep abandoning sharded builds
// mid-shard while Apply commits new generations, and a final unhurried
// read must still see a complete, correct artifact.
func TestShardedCancelUnderConcurrentApply(t *testing.T) {
	forceSharding(t)
	db := Wrap(workload.MetroGrid(36, 3, 0))
	const writerBatches = 6
	var wg sync.WaitGroup
	errCh := make(chan error, 16)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < writerBatches; b++ {
			x := int64(10000 + 10*b)
			if err := db.Apply(func(tx *Txn) error {
				return tx.AddRect(fmt.Sprintf("W%03d", b), x, 0, x+4, 4)
			}); err != nil {
				errCh <- fmt.Errorf("writer batch %d: %w", b, err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(g+i)*100*time.Microsecond)
				s := db.Snapshot()
				if _, err := s.QueryBatch(ctx, []string{"overlap(Mg000000, Mg000001)"}); err != nil &&
					!errors.Is(err, ErrCanceled) {
					errCh <- fmt.Errorf("reader %d/%d: %w", g, i, err)
					cancel()
					return
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	s := db.Snapshot()
	rels, err := s.AllRelations()
	if err != nil {
		t.Fatal(err)
	}
	if r := rels[[2]string{"Mg000000", "W000"}]; r != Disjoint {
		t.Fatalf("post-race relation = %v, want Disjoint", r)
	}
	if stats, ok := s.ShardStats(); !ok || stats.Shards != 4+writerBatches {
		t.Fatalf("post-race ShardStats = %+v, %v; want %d shards", stats, ok, 4+writerBatches)
	}
}
