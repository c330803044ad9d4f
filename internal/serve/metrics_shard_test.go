package serve

import (
	"bytes"
	"net/http"
	"strings"
	"testing"

	"topodb"
	"topodb/internal/arrange"
	"topodb/internal/workload"
)

// forceSharding drops the shard threshold to 0 for one test, restoring it
// after — every snapshot of any size takes the sharded pipeline.
func forceSharding(t *testing.T) {
	t.Helper()
	old := arrange.SetShardThreshold(0)
	t.Cleanup(func() { arrange.SetShardThreshold(old) })
}

// TestMetricsShardLines drives a relate call against a small instance —
// one shard below the 2048-region threshold — and checks the /metrics
// scrape reports the shard gauge and the per-shard build histogram.
func TestMetricsShardLines(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var out RelateResponse
	post(t, ts, "/v1/relate", RelateRequest{Instance: "main", A: "A", B: "B"}, &out)
	if out.Relation != "overlap" {
		t.Fatalf("relate(A, B) = %q, want overlap", out.Relation)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"# TYPE topodbd_shards gauge",
		`topodbd_shards{db="main"} 1`,
		"# TYPE topodbd_shard_build_seconds histogram",
		"topodbd_shard_build_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
}

// TestMetricsShardStatsFold pins the generation-fold semantics of
// Metrics.ShardStats: a re-scrape of the same generation observes nothing
// new, and a new generation observes only its fresh build latencies —
// aliased shards (0 ns) are never observed.
func TestMetricsShardStatsFold(t *testing.T) {
	m := NewMetrics()

	m.ShardStats("db", 1, 3, []int64{1e6, 2e6, 0})
	m.ShardStats("db", 1, 3, []int64{1e6, 2e6, 0}) // same gen, re-scrape
	s := m.Snapshot()
	if s.ShardsByDB["db"] != 3 {
		t.Fatalf("same-gen shard gauge = %d, want 3", s.ShardsByDB["db"])
	}
	if s.ShardBuild.Count != 2 {
		t.Fatalf("same-gen build observations = %d, want 2 (one per nonzero latency)", s.ShardBuild.Count)
	}

	m.ShardStats("db", 2, 4, []int64{3e6, 0, 0, 0})
	s = m.Snapshot()
	if s.ShardsByDB["db"] != 4 {
		t.Fatalf("new-gen shard gauge = %d, want 4", s.ShardsByDB["db"])
	}
	if s.ShardBuild.Count != 3 {
		t.Fatalf("new-gen build observations = %d, want 3", s.ShardBuild.Count)
	}
}

// TestShardStatsStampedWithSnapshotGen folds readings from snapshots of
// two consecutive generations after the instance has moved past both:
// each reading must be stamped with its own snapshot's generation, so
// topodbd_shard_build_seconds_count counts each generation's non-aliased
// shard builds exactly once — not generation N's twice, not N+1's never.
func TestShardStatsStampedWithSnapshotGen(t *testing.T) {
	forceSharding(t)
	db := topodb.Wrap(workload.MetroGrid(36, 3, 0)) // 4 disjoint districts
	s1 := db.Snapshot()
	if _, err := s1.AllRelations(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRect("Zz_far", 10000, 10000, 10004, 10004); err != nil {
		t.Fatal(err)
	}
	s2 := db.Snapshot()
	if _, err := s2.AllRelations(); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRect("Zz_farther", 20000, 20000, 20004, 20004); err != nil {
		t.Fatal(err)
	}
	if s1.Gen() == s2.Gen() || db.Gen() == s2.Gen() {
		t.Fatalf("generations did not advance: %d, %d, instance %d", s1.Gen(), s2.Gen(), db.Gen())
	}

	built := 0
	for _, s := range []*topodb.Snapshot{s1, s2} {
		stats, ok := s.ShardStats()
		if !ok {
			t.Fatalf("generation %d: no shard stats after a sharded build", s.Gen())
		}
		for _, ns := range stats.BuildNanos {
			if ns > 0 {
				built++
			}
		}
	}
	if built != 4+1 {
		t.Fatalf("non-aliased shard builds = %d, want 4 then 1", built)
	}

	srv := New(Options{})
	for _, s := range []*topodb.Snapshot{s1, s2, s2} { // s2 twice: a re-scrape
		srv.foldShardStats("main", s)
	}
	var buf bytes.Buffer
	if _, err := srv.Metrics().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "topodbd_shard_build_seconds_count 5\n"; !strings.Contains(buf.String(), want) {
		t.Fatalf("/metrics missing %q\nbody:\n%s", want, buf.String())
	}
}
