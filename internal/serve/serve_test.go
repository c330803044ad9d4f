package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"topodb"
)

// newTestDB builds the fig1c-shaped pair: A and B overlapping rects.
func newTestDB(t *testing.T) *topodb.Instance {
	t.Helper()
	db := topodb.NewInstance()
	if err := db.AddRect("A", 0, 0, 4, 4); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRect("B", 2, 2, 6, 6); err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	s.Register("main", newTestDB(t))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post round-trips a JSON request and decodes the response into out.
func post(t *testing.T, ts *httptest.Server, path string, req, out any) int {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestClassTable(t *testing.T) {
	cases := []struct {
		err  error
		want ErrorClass
	}{
		{nil, ClassOK},
		{fmt.Errorf("wrapped: %w", topodb.ErrParse), ClassParse},
		{fmt.Errorf("wrapped: %w", topodb.ErrNotSelectable), ClassNotSelectable},
		{fmt.Errorf("wrapped: %w", topodb.ErrNoRegion), ClassNoRegion},
		{fmt.Errorf("wrapped: %w", topodb.ErrCanceled), ClassCanceled},
		{fmt.Errorf("wrapped: %w", topodb.ErrTooManyRegions), ClassTooManyRegions},
		{errors.New("mystery"), ClassInternal},
	}
	for _, c := range cases {
		if got := ClassOf(c.err); got != c.want {
			t.Errorf("ClassOf(%v) = %+v, want %+v", c.err, got, c.want)
		}
		if got := ExitCode(c.err); got != c.want.Exit {
			t.Errorf("ExitCode(%v) = %d, want %d", c.err, got, c.want.Exit)
		}
	}
	// The handler-level classifier additionally maps raw context errors
	// (from coalesce joiners that give up) to canceled, and handlerErrors
	// to their explicit class.
	if got := classify(context.DeadlineExceeded); got != ClassCanceled {
		t.Errorf("classify(DeadlineExceeded) = %+v, want canceled", got)
	}
	if got := classify(context.Canceled); got != ClassCanceled {
		t.Errorf("classify(Canceled) = %+v, want canceled", got)
	}
	if got := classify(noInstance("x")); got != ClassNoInstance {
		t.Errorf("classify(noInstance) = %+v, want no_instance", got)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	var resp QueryResponse
	status := post(t, ts, "/v1/query", QueryRequest{Instance: "main", Query: "overlap(A, B)"}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if !resp.OK {
		t.Errorf("overlap(A, B) = false, want true")
	}
	db, _ := s.instance("main")
	if resp.Gen != db.Gen() {
		t.Errorf("gen = %d, want %d", resp.Gen, db.Gen())
	}
	if resp.BatchSize != 1 {
		t.Errorf("batch_size = %d, want 1 (every query evaluates alone)", resp.BatchSize)
	}

	snap := s.metrics.Snapshot()
	if snap.Routes["query"].Requests != 1 {
		t.Errorf("query requests = %d, want 1", snap.Routes["query"].Requests)
	}
	if snap.Routes["query"].Latency.Count != 1 {
		t.Errorf("latency observations = %d, want 1", snap.Routes["query"].Latency.Count)
	}
}

func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name   string
		path   string
		req    any
		status int
		code   string
	}{
		{"parse", "/v1/query", QueryRequest{Instance: "main", Query: "overlap(("}, 400, "parse"},
		{"no_region", "/v1/query", QueryRequest{Instance: "main", Query: "overlap(Zz, Qq)"}, 404, "no_region"},
		{"no_instance", "/v1/query", QueryRequest{Instance: "ghost", Query: "overlap(A, B)"}, 404, "no_instance"},
		{"empty_query", "/v1/query", QueryRequest{Instance: "main"}, 400, "bad_request"},
		{"unknown_field", "/v1/query", map[string]any{"instance": "main", "query": "overlap(A, B)", "bogus": 1}, 400, "bad_request"},
		{"relate_no_region", "/v1/relate", RelateRequest{Instance: "main", A: "A", B: "Zz"}, 404, "no_region"},
		// A negative refine is rejected before any universe is built: each
		// distinct k would otherwise pin its own cold build.
		{"negative_refine_query", "/v1/query", QueryRequest{Instance: "main", Query: "overlap(A, B)", Refine: -1}, 400, "bad_request"},
		{"negative_refine_batch", "/v1/query/batch", BatchRequest{Instance: "main", Queries: []string{"overlap(A, B)"}, Refine: -2}, 400, "bad_request"},
		{"negative_refine_select", "/v1/select", SelectRequest{Instance: "main", Query: "some name x: overlap(x, A)", Refine: -3}, 400, "bad_request"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := refinedDerivations()
			var resp ErrorResponse
			status := post(t, ts, c.path, c.req, &resp)
			if n := refinedDerivations() - before; n != 0 {
				t.Errorf("request derived %d refined universes, want 0", n)
			}
			if status != c.status {
				t.Errorf("status = %d, want %d", status, c.status)
			}
			if resp.Error.Code != c.code {
				t.Errorf("code = %q, want %q", resp.Error.Code, c.code)
			}
			if resp.Error.Message == "" {
				t.Error("error message empty")
			}
		})
	}
}

// refinedDerivations sums the engine's refined universe derivations.
func refinedDerivations() uint64 {
	var n uint64
	for _, d := range topodb.ArtifactDerivationCounts() {
		if d.Refined {
			n += d.N
		}
	}
	return n
}

func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp BatchResponse
	status := post(t, ts, "/v1/query/batch", BatchRequest{
		Instance: "main",
		Queries:  []string{"overlap(A, B)", "overlap((", "disjoint(A, B)"},
	}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (per-query errors stay in-band)", status)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(resp.Results))
	}
	if !resp.Results[0].OK || resp.Results[0].Error != nil {
		t.Errorf("results[0] = %+v, want ok", resp.Results[0])
	}
	if resp.Results[1].Error == nil || resp.Results[1].Error.Code != "parse" {
		t.Errorf("results[1].error = %+v, want parse", resp.Results[1].Error)
	}
	if resp.Results[2].OK || resp.Results[2].Error != nil {
		t.Errorf("results[2] = %+v, want ok=false (A and B overlap)", resp.Results[2])
	}
}

func TestPrepareEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var resp PrepareResponse
	status := post(t, ts, "/v1/prepare", PrepareRequest{Query: "  overlap( A,   B )  "}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if resp.Query != "overlap( A, B )" {
		t.Errorf("normalized query = %q", resp.Query)
	}
	if len(resp.FreeNames) != 2 {
		t.Errorf("free names = %v, want [A B]", resp.FreeNames)
	}
}

func TestSelectEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	var names SelectResponse
	if status := post(t, ts, "/v1/select", SelectRequest{Instance: "main", Query: "some name x: overlap(x, A)"}, &names); status != 200 {
		t.Fatalf("name select status = %d", status)
	}
	if names.Sort != "name" || len(names.Names) == 0 || !names.Complete {
		t.Errorf("name select = %+v, want non-empty complete name rows", names)
	}

	var cells SelectResponse
	if status := post(t, ts, "/v1/select", SelectRequest{Instance: "main", Query: "some cell r: subset(r, A) and subset(r, B)"}, &cells); status != 200 {
		t.Fatalf("cell select status = %d", status)
	}
	if cells.Sort != "cell" || len(cells.Cells) == 0 || !cells.Complete {
		t.Errorf("cell select = %+v, want non-empty complete cell rows", cells)
	}

	var regions SelectResponse
	if status := post(t, ts, "/v1/select", SelectRequest{Instance: "main", Query: "some region r: subset(r, A) and subset(r, B)"}, &regions); status != 200 {
		t.Fatalf("region select status = %d", status)
	}
	if regions.Sort != "region" || len(regions.Regions) == 0 {
		t.Errorf("region select = %+v, want non-empty region rows", regions)
	}
}

func TestRelateRelationsInvariant(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	var rel RelateResponse
	if status := post(t, ts, "/v1/relate", RelateRequest{Instance: "main", A: "A", B: "B"}, &rel); status != 200 {
		t.Fatalf("relate status = %d", status)
	}
	if rel.Relation != "overlap" {
		t.Errorf("relate(A, B) = %q, want overlap", rel.Relation)
	}

	var rels RelationsResponse
	if status := post(t, ts, "/v1/relations", RelationsRequest{Instance: "main"}, &rels); status != 200 {
		t.Fatalf("relations status = %d", status)
	}
	if len(rels.Pairs) == 0 {
		t.Fatal("relations returned no pairs")
	}
	for i := 1; i < len(rels.Pairs); i++ {
		a, b := rels.Pairs[i-1], rels.Pairs[i]
		if a.A > b.A || (a.A == b.A && a.B > b.B) {
			t.Errorf("pairs not sorted: %+v before %+v", a, b)
		}
	}

	var inv InvariantResponse
	if status := post(t, ts, "/v1/invariant", InvariantRequest{Instance: "main", Canonical: true}, &inv); status != 200 {
		t.Fatalf("invariant status = %d", status)
	}
	if inv.Vertices == 0 || inv.Edges == 0 || inv.Faces == 0 {
		t.Errorf("invariant stats = %+v, want non-zero v/e/f", inv)
	}
	if inv.Canonical == "" {
		t.Error("canonical encoding empty despite canonical:true")
	}
}

func TestApplyAndInstances(t *testing.T) {
	_, ts := newTestServer(t, Options{AllowCreate: true})

	var applied ApplyResponse
	status := post(t, ts, "/v1/apply", ApplyRequest{
		Instance: "fresh",
		Adds: []AddOp{
			{Name: "A", Kind: "rect", Coords: []int64{0, 0, 4, 4}},
			{Name: "B", Kind: "circle", Coords: []int64{8, 8, 3}, N: 8},
		},
	}, &applied)
	if status != http.StatusOK {
		t.Fatalf("apply status = %d", status)
	}
	if applied.Regions != 2 || applied.Gen == 0 {
		t.Errorf("apply response = %+v, want 2 regions at gen > 0", applied)
	}

	// The batch is atomic: a bad op rolls the whole request back.
	var failed ErrorResponse
	status = post(t, ts, "/v1/apply", ApplyRequest{
		Instance: "fresh",
		Adds: []AddOp{
			{Name: "C", Kind: "rect", Coords: []int64{10, 10, 14, 14}},
			{Name: "D", Kind: "hexagon", Coords: []int64{0, 0}},
		},
	}, &failed)
	if status != 400 || failed.Error.Code != "bad_request" {
		t.Fatalf("bad apply: status %d code %q, want 400 bad_request", status, failed.Error.Code)
	}

	var list InstancesResponse
	if status := post0(t, ts, "/v1/instances", &list); status != 200 {
		t.Fatalf("instances status = %d", status)
	}
	var fresh *InstanceInfo
	for i := range list.Instances {
		if list.Instances[i].Name == "fresh" {
			fresh = &list.Instances[i]
		}
	}
	if fresh == nil {
		t.Fatal("instance fresh not listed")
	}
	if fresh.Regions != 2 {
		t.Errorf("fresh has %d regions after rolled-back apply, want 2", fresh.Regions)
	}

	// Without AllowCreate, apply to a missing instance is no_instance.
	_, strict := newTestServer(t, Options{})
	var denied ErrorResponse
	status = post(t, strict, "/v1/apply", ApplyRequest{
		Instance: "ghost",
		Adds:     []AddOp{{Name: "A", Kind: "rect", Coords: []int64{0, 0, 1, 1}}},
	}, &denied)
	if status != 404 || denied.Error.Code != "no_instance" {
		t.Errorf("apply without AllowCreate: status %d code %q, want 404 no_instance", status, denied.Error.Code)
	}
}

// post0 GETs a JSON endpoint.
func post0(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func TestAdmissionShed(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxInflight: 1})
	// Occupy the only in-flight slot directly, then observe the shed.
	s.inflight <- struct{}{}
	var resp ErrorResponse
	status := post(t, ts, "/v1/query", QueryRequest{Instance: "main", Query: "overlap(A, B)"}, &resp)
	<-s.inflight
	if status != http.StatusTooManyRequests || resp.Error.Code != "overloaded" {
		t.Fatalf("saturated server: status %d code %q, want 429 overloaded", status, resp.Error.Code)
	}
	if shed := s.metrics.Snapshot().Shed; shed != 1 {
		t.Errorf("shed counter = %d, want 1", shed)
	}
	// With the slot free again the same request succeeds.
	var ok QueryResponse
	if status := post(t, ts, "/v1/query", QueryRequest{Instance: "main", Query: "overlap(A, B)"}, &ok); status != 200 {
		t.Errorf("post-shed status = %d, want 200", status)
	}
}

func TestDeadlineMapsToCanceled(t *testing.T) {
	// The evaluator checks the context on entry, so a server whose
	// default deadline has already expired by evaluation time
	// deterministically yields the library's branded ErrCanceled, which
	// the wire maps to 504.
	_, ts := newTestServer(t, Options{DefaultTimeout: time.Nanosecond})
	var resp ErrorResponse
	status := post(t, ts, "/v1/query", QueryRequest{
		Instance: "main",
		Query:    "overlap(A, B)",
	}, &resp)
	if status != http.StatusGatewayTimeout || resp.Error.Code != "canceled" {
		t.Fatalf("expired direct eval: status %d code %q, want 504 canceled", status, resp.Error.Code)
	}
}

func TestCoalescerUnit(t *testing.T) {
	c := newCoalescer()
	key := coalesceKey{route: "query", instance: "main", gen: 1, query: "q"}

	started := make(chan struct{})
	release := make(chan struct{})
	type outcome struct {
		val    any
		err    error
		joined bool
	}
	leader := make(chan outcome, 1)
	go func() {
		v, err, joined := c.do(context.Background(), key, func() (any, error) {
			close(started)
			<-release
			return 42, nil
		})
		leader <- outcome{v, err, joined}
	}()
	<-started

	// A joiner with its own canceled context gives up without waiting for
	// the leader, and still counts as having joined the flight.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err, joined := c.do(ctx, key, nil); !joined || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled joiner: joined=%v err=%v, want joined, context.Canceled", joined, err)
	}

	// A patient joiner shares the leader's value. The leader stays parked
	// in fn until release closes (50ms out), so the flight is guaranteed
	// still in progress when the joiner calls do; its fn is nil to prove
	// it is never invoked.
	time.AfterFunc(50*time.Millisecond, func() { close(release) })
	v, err, joined := c.do(context.Background(), key, nil)
	if !joined || v != 42 || err != nil {
		t.Fatalf("patient joiner = (%v, %v, joined=%v), want shared 42", v, err, joined)
	}

	l := <-leader
	if l.joined || l.val != 42 || l.err != nil {
		t.Fatalf("leader outcome = %+v, want own evaluation of 42", l)
	}

	// Completed flights are not cached: a later caller re-evaluates.
	v, err, joined = c.do(context.Background(), key, func() (any, error) { return 7, nil })
	if joined || v != 7 || err != nil {
		t.Fatalf("post-completion call = (%v, %v, joined=%v), want fresh evaluation of 7", v, err, joined)
	}
}

func TestNormalizeQuery(t *testing.T) {
	if got := normalizeQuery("  overlap( A,\n\tB )  "); got != "overlap( A, B )" {
		t.Errorf("normalizeQuery = %q", got)
	}
}

func TestCoalesceOverHTTP(t *testing.T) {
	// The requests hit a fresh generation, so the leader's flight
	// includes the cold k=8 refined universe build and a region
	// enumeration over it: long enough that concurrent identical requests
	// reliably find the flight in progress and join it.
	s, ts := newTestServer(t, Options{DefaultTimeout: 10 * time.Second})
	const n = 8
	req := QueryRequest{Instance: "main", Query: "some region r: overlap(r, A) and overlap(r, B)", Refine: 8}
	var wg sync.WaitGroup
	start := make(chan struct{})
	resps := make([]QueryResponse, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i] = postQuiet(ts, "/v1/query", req, &resps[i])
		}(i)
	}
	close(start)
	wg.Wait()

	var coalesced int
	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d status = %d", i, codes[i])
		}
		if !resps[i].OK {
			t.Errorf("request %d verdict = false, want true", i)
		}
		if resps[i].Gen != resps[0].Gen {
			t.Errorf("request %d gen = %d, others %d; coalesced responses must share one generation", i, resps[i].Gen, resps[0].Gen)
		}
		if resps[i].Coalesced {
			coalesced++
		}
	}
	if coalesced == 0 {
		t.Error("no request reported coalesced=true out of 8 identical concurrent requests")
	}
	snap := s.metrics.Snapshot()
	if snap.CoalesceHits() == 0 {
		t.Error("metrics recorded no coalesce hits")
	}
	if snap.Routes["query"].Requests != n {
		t.Errorf("query requests = %d, want %d", snap.Routes["query"].Requests, n)
	}
}

// TestRegisterReleasesReplacedInstance pins that the server reaches an
// instance only through its registry: after /v1/query, /v1/select and
// /v1/prepare have served instance A, registering a fresh instance under
// the same name leaves nothing holding A, so it is collected.
func TestRegisterReleasesReplacedInstance(t *testing.T) {
	s := New(DefaultOptions())
	ts := newLocalServer(t, s)
	finalized := make(chan struct{})
	func() {
		a := newTestDB(t)
		runtime.SetFinalizer(a, func(*topodb.Instance) { close(finalized) })
		s.Register("main", a)
	}()

	var q QueryResponse
	if status := post(t, ts, "/v1/query", QueryRequest{Instance: "main", Query: "overlap(A, B)"}, &q); status != 200 || !q.OK {
		t.Fatalf("query: status %d, ok %v", status, q.OK)
	}
	var sel SelectResponse
	if status := post(t, ts, "/v1/select", SelectRequest{Instance: "main", Query: "some name x: overlap(x, A)"}, &sel); status != 200 {
		t.Fatalf("select status = %d", status)
	}
	var prep PrepareResponse
	if status := post(t, ts, "/v1/prepare", PrepareRequest{Query: "overlap(A, B)"}, &prep); status != 200 {
		t.Fatalf("prepare status = %d", status)
	}

	s.Register("main", newTestDB(t))
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-finalized:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
	t.Fatal("the replaced instance is still reachable after Register")
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var out QueryResponse
	post(t, ts, "/v1/query", QueryRequest{Instance: "main", Query: "overlap(A, B)"}, &out)

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
		`topodbd_requests_total{route="query"} 1`,
		"# TYPE topodbd_request_seconds histogram",
		`topodbd_request_seconds_bucket{route="query",le="+Inf"} 1`,
		"topodbd_shed_total 0",
		"# TYPE topodbd_go_heap_live_bytes gauge",
		"# TYPE topodbd_go_heap_alloc_bytes_total counter",
		"# TYPE topodbd_go_gc_cycles_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\nbody:\n%s", want, body)
		}
	}
	// The Go runtime series carry live values: a serving process has a
	// non-empty heap and has allocated.
	for _, name := range []string{"topodbd_go_heap_live_bytes", "topodbd_go_heap_alloc_bytes_total"} {
		var v uint64
		i := strings.Index(body, "\n"+name+" ")
		if i < 0 {
			t.Fatalf("/metrics has no %s sample\nbody:\n%s", name, body)
		}
		if _, err := fmt.Sscanf(body[i+1:], name+" %d", &v); err != nil || v == 0 {
			t.Errorf("%s = %d (%v), want a positive byte count", name, v, err)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("healthz status = %d", resp.StatusCode)
	}
}

func TestQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 1.5, 3} {
		h.observe(v)
	}
	s := snapHistogram(h)
	if got := s.Quantile(0.5); got != 2 {
		t.Errorf("p50 = %g, want 2", got)
	}
	if got := s.Quantile(0.99); got != 4 {
		t.Errorf("p99 = %g, want 4", got)
	}
	if got := (HistogramSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}
