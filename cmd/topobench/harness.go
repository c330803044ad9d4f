package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"topodb"
	"topodb/internal/serve"
)

// instanceName is the name every workload serves its instance under.
const instanceName = "bench"

// harness serves one topodb instance through the topodbd handler
// (serve.New with shipped defaults) on a loopback listener, and talks to it
// over HTTP with at most two connections.
type harness struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	db     *topodb.Instance // the served instance; replaced at each set-up

	attempted, failed atomic.Int64 // measured operations
	wrong             atomic.Int64 // oracle mismatches, anywhere in the run
	mu                sync.Mutex
	notes             []string // the first few failure and mismatch messages
}

func newHarness() *harness {
	srv := serve.New(serve.DefaultOptions())
	transport := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}
	return &harness{
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: transport, Timeout: 60 * time.Second},
	}
}

// close stops the listener, waiting for outstanding requests.
func (h *harness) close() {
	h.client.CloseIdleConnections()
	h.ts.Close()
}

// note keeps the first few messages for the report.
func (h *harness) note(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.notes) < 8 {
		h.notes = append(h.notes, fmt.Sprintf(format, args...))
	}
}

// mismatch records an answer that disagrees with the oracle.
func (h *harness) mismatch(format string, args ...any) {
	h.wrong.Add(1)
	h.note("wrong answer: "+format, args...)
}

// post sends one JSON request and decodes the 200 response into resp.
// Non-2xx statuses, transport errors and timeouts are errors.
func (h *harness) post(route string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := h.client.Post(h.ts.URL+route, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(r.Body) // best effort: the status already says it failed
		return fmt.Errorf("%s: HTTP %d: %s", route, r.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		return fmt.Errorf("%s: decoding response: %w", route, err)
	}
	return nil
}

// reset serves a fresh, empty instance in place of the previous one and
// collects the previous one's garbage, outside any timing, as testing.B
// does before each benchmark: every set-up then starts from a collected
// heap, and GC pacing left by the previous episode does not carry into
// this one. Without it, the run-to-run spread of the metro latencies was
// twice as wide.
func (h *harness) reset() {
	h.db = topodb.NewInstance()
	h.srv.Register(instanceName, h.db)
	runtime.GC()
}

// load adds rs to the served instance with one /v1/apply.
func (h *harness) load(rs []rect) error {
	adds := make([]serve.AddOp, len(rs))
	for i, r := range rs {
		adds[i] = addOp(r)
	}
	var resp serve.ApplyResponse
	return h.post("/v1/apply", serve.ApplyRequest{Instance: instanceName, Adds: adds}, &resp)
}

func addOp(r rect) serve.AddOp {
	return serve.AddOp{Name: r.Name, Kind: "rect", Coords: []int64{r.X1, r.Y1, r.X2, r.Y2}}
}

// apply adds one rectangle and returns the generation it produced.
func (h *harness) apply(r rect) (uint64, error) {
	var resp serve.ApplyResponse
	err := h.post("/v1/apply", serve.ApplyRequest{Instance: instanceName, Adds: []serve.AddOp{addOp(r)}}, &resp)
	return resp.Gen, err
}

// relate asks for the relation of a to b and checks it against the oracle
// and against minGen, the generation of the last apply acknowledged before
// the request was sent.
func (h *harness) relate(a, b rect, minGen uint64) error {
	var resp serve.RelateResponse
	if err := h.post("/v1/relate", serve.RelateRequest{Instance: instanceName, A: a.Name, B: b.Name}, &resp); err != nil {
		return err
	}
	if want := relation(a, b); resp.Relation != want {
		h.mismatch("relate(%s, %s) = %s, want %s", a.Name, b.Name, resp.Relation, want)
	}
	h.checkGen("relate", resp.Gen, minGen)
	return nil
}

// query evaluates the cell query of a and b at refinement k and checks it
// like relate.
func (h *harness) query(a, b rect, k int, minGen uint64) error {
	var resp serve.QueryResponse
	req := serve.QueryRequest{Instance: instanceName, Query: cellQuery(a.Name, b.Name), Refine: k}
	if err := h.post("/v1/query", req, &resp); err != nil {
		return err
	}
	if want := interiorsOverlap(a, b); resp.OK != want {
		h.mismatch("query(%s, %s, k=%d) = %v, want %v", a.Name, b.Name, k, resp.OK, want)
	}
	h.checkGen("query", resp.Gen, minGen)
	return nil
}

// invariant fetches the canonical invariant, checking its generation.
func (h *harness) invariant(minGen uint64) (string, error) {
	var resp serve.InvariantResponse
	if err := h.post("/v1/invariant", serve.InvariantRequest{Instance: instanceName, Canonical: true}, &resp); err != nil {
		return "", err
	}
	h.checkGen("invariant", resp.Gen, minGen)
	return resp.Canonical, nil
}

// checkGen flags a response evaluated on a generation older than an apply
// already acknowledged when the request was sent.
func (h *harness) checkGen(route string, got, min uint64) {
	if got < min {
		h.mismatch("%s answered on generation %d, below the acknowledged apply's %d", route, got, min)
	}
}

// allocBytes reads the process's cumulative heap allocation.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler reads the live heap every 100 ms. The live heap only moves
// when a collection ends, so its maximum depends on where the collections
// fall relative to the work; the median reading is what repeats.
type heapSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		for {
			metrics.Read(sample)
			s.mb = append(s.mb, float64(sample[0].Value.Uint64())/1e6)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the median and the largest reading, in MB.
func (s *heapSampler) Stop() (median, peak float64) {
	close(s.stop)
	<-s.done
	mb := sorted(s.mb)
	return percentile(mb, 0.5), mb[len(mb)-1]
}

// percentile interpolates linearly between the order statistics of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	x := p * float64(len(sorted)-1)
	i := int(x)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (x-float64(i))*(sorted[i+1]-sorted[i])
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// row is one line of the human-readable table.
type row struct {
	name  string
	value float64
	unit  string
}

// table accumulates the rows a run prints.
type table []row

func (t *table) add(name string, value float64, unit string) {
	*t = append(*t, row{name, value, unit})
}

// pick returns the named rows as report metrics; a missing name is a bug.
func (t table) pick(names []string) map[string]metric {
	out := make(map[string]metric, len(names))
	for _, r := range t {
		if slices.Contains(names, r.name) {
			out[r.name] = metric{r.value, r.unit}
		}
	}
	for _, name := range names {
		if _, ok := out[name]; !ok {
			panic("topobench: metric " + name + " was not measured")
		}
	}
	return out
}

func (t table) write(w io.Writer) {
	for _, r := range t {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", r.name, r.value, r.unit)
	}
}
