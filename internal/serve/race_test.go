package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"topodb"
)

// TestCoalescedReadsUnderMutation pins down the serving tier's central
// correctness claim: a coalesced response stamped with generation G
// always carries the answer generation G's frozen state
// gives — never a neighbor generation's, no matter how reads and Applies
// interleave.
//
// The mutator grows the instance one overlapping rectangle per Apply and
// records, per generation, the ground-truth witness count of
//
//	some name x: overlap(x, P)
//
// computed through the library on a snapshot of that generation. Each
// Apply changes the count, so every generation has a distinct expected
// answer: a response whose body came from a different generation than its
// Gen stamp cannot go unnoticed. Meanwhile readers hammer /v1/select and
// /v1/query with identical concurrent requests — exactly the shape that
// coalesces — and every response is checked against the ground truth for
// the generation it claims.
//
// Run with -race; the test is also a data-race probe over the
// coalescer/metrics state.
func TestCoalescedReadsUnderMutation(t *testing.T) {
	db := topodb.NewInstance()
	if err := db.AddRect("P", 0, 0, 20, 20); err != nil {
		t.Fatal(err)
	}
	// One overlapping rect from the start keeps the /v1/query verdict
	// below true at every generation.
	if err := db.AddRect("Q", 5, 5, 30, 30); err != nil {
		t.Fatal(err)
	}

	s := New(Options{DefaultTimeout: 30 * time.Second})
	s.Register("main", db)
	ts := newLocalServer(t, s)

	const query = "some name x: overlap(x, P)"

	// truth computes the witness count on an explicit snapshot — the
	// library's own single-threaded answer for that generation.
	pq, err := db.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	truth := func(snap *topodb.Snapshot) int {
		res, err := pq.SelectOn(context.Background(), snap, 0)
		if err != nil {
			t.Errorf("ground truth eval at gen %d: %v", snap.Gen(), err)
			return -1
		}
		return len(res.Names)
	}

	var mu sync.Mutex
	expected := map[uint64]int{}
	record := func() {
		snap := db.Snapshot()
		n := truth(snap)
		mu.Lock()
		expected[snap.Gen()] = n
		mu.Unlock()
	}
	record() // the pre-mutation generation

	type observed struct {
		gen   uint64
		count int // -1 for /v1/query observations (verdict-only)
	}
	var omu sync.Mutex
	var seen []observed

	done := make(chan struct{})
	const readers = 6
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if i%2 == 0 {
					var resp SelectResponse
					if status := postQuiet(ts, "/v1/select", SelectRequest{Instance: "main", Query: query}, &resp); status == http.StatusOK {
						omu.Lock()
						seen = append(seen, observed{gen: resp.Gen, count: len(resp.Names)})
						omu.Unlock()
					}
				} else {
					var resp QueryResponse
					if status := postQuiet(ts, "/v1/query", QueryRequest{Instance: "main", Query: query}, &resp); status == http.StatusOK {
						if !resp.OK {
							t.Errorf("query verdict false at gen %d; P always self-reports a witness set", resp.Gen)
						}
						omu.Lock()
						seen = append(seen, observed{gen: resp.Gen, count: -1})
						omu.Unlock()
					}
				}
			}
		}(i)
	}

	// The mutator: one overlapping rectangle per Apply, each shifting the
	// witness count, with short pauses so reads interleave with several
	// distinct generations.
	const mutations = 6
	for i := 0; i < mutations; i++ {
		err := db.Apply(func(tx *topodb.Txn) error {
			x := int64(i + 1)
			return tx.AddRect(fmt.Sprintf("R%d", i), x, x, x+25, x+25)
		})
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		record()
		time.Sleep(5 * time.Millisecond)
	}
	close(done)
	wg.Wait()

	if len(seen) == 0 {
		t.Fatal("readers observed no successful responses")
	}
	gens := map[uint64]bool{}
	for _, o := range seen {
		gens[o.gen] = true
		want, ok := expected[o.gen]
		if !ok {
			t.Fatalf("response stamped unknown generation %d (known: %v)", o.gen, keys(expected))
		}
		if o.count >= 0 && o.count != want {
			t.Fatalf("response stamped gen %d carried %d witnesses, but generation %d's state answers %d — a coalesced response leaked across generations",
				o.gen, o.count, o.gen, want)
		}
	}
	if len(gens) < 2 {
		t.Logf("readers observed only %d distinct generation(s); interleaving was thin this run", len(gens))
	}
	t.Logf("checked %d responses across %d generations; coalesce hits: %d",
		len(seen), len(gens), s.metrics.Snapshot().CoalesceHits())
}

func keys(m map[uint64]int) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// newLocalServer wraps a configured Server in an httptest listener.
func newLocalServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// postQuiet is a goroutine-safe JSON round-trip: transport errors return
// status 0 instead of failing the test, so reader goroutines under churn
// just skip the sample.
func postQuiet(ts *httptest.Server, path string, req, out any) int {
	body, err := json.Marshal(req)
	if err != nil {
		return 0
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return 0
	}
	return resp.StatusCode
}
