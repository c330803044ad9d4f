package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"topodb"
	"topodb/internal/serve"
	"topodb/internal/spatial"
)

// The load generator's request shape: instance "main" holding the fig1c
// pair (what `topodbd -load main=fig1c` serves), an expensive coalescable
// region query, and a set of cheap queries.
const (
	serveInstance = "main"
	// serveHeavyQuery takes several ms at serveHeavyRefine — long enough
	// that identical concurrent requests reliably find each other's
	// flight in progress.
	serveHeavyQuery  = "some region r: overlap(r, A) and overlap(r, B)"
	serveHeavyRefine = 8
)

var serveCheapQueries = []string{
	"overlap(A, B)", "meet(A, B)", "disjoint(A, B)", "inside(A, B)",
}

func newServeInstance() *topodb.Instance {
	return topodb.Wrap(spatial.Fig1c())
}

// serveClient is an HTTP client with enough idle connections to keep a
// concurrent wave from paying connection setup per request.
func serveClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 64
	return &http.Client{Transport: t}
}

// postJSON round-trips one JSON request; it returns the HTTP status (0 on
// transport error).
func postJSON(c *http.Client, url string, req any) int {
	body, err := json.Marshal(req)
	if err != nil {
		return 0
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0
	}
	// Drain so the connection returns to the pool.
	var sink [512]byte
	for {
		if _, err := resp.Body.Read(sink[:]); err != nil {
			break
		}
	}
	resp.Body.Close()
	return resp.StatusCode
}

// validateServeLoad rejects load parameters the generator cannot honour: a
// non-positive QPS would turn the per-worker pacing period into an
// overflowed duration (every sleep skipped, the run unthrottled), and a
// non-positive duration sends nothing.
func validateServeLoad(qps int, dur time.Duration) error {
	if qps <= 0 {
		return fmt.Errorf("-load-qps must be positive, got %d", qps)
	}
	if dur <= 0 {
		return fmt.Errorf("-load-duration must be positive, got %v", dur)
	}
	return nil
}

// serveLoadReport is the machine-readable output of -serve-load.
type serveLoadReport struct {
	Schema       string         `json:"schema"`
	TargetQPS    int            `json:"target_qps"`
	ActualQPS    float64        `json:"actual_qps"`
	Concurrency  int            `json:"concurrency"`
	Duration     string         `json:"duration"`
	Requests     int            `json:"requests"`
	StatusCounts map[string]int `json:"status_counts"` // "2xx", "4xx", "5xx", "transport_error"
	FiveXX       int            `json:"five_xx"`
	P50Ms        float64        `json:"p50_ms"`
	P95Ms        float64        `json:"p95_ms"`
	P99Ms        float64        `json:"p99_ms"`
	CoalesceHits int64          `json:"coalesce_hits"`
	Shed         int64          `json:"shed"`
}

// serveLoad drives a topodbd-shaped server at a target QPS with a
// concurrency ramp and reports client-side latency percentiles plus the
// server's coalesce/shed counters. With -load-url it targets a
// running server (scraping /metrics for the counters); otherwise it
// spins an in-process one. -assert-coalesce and -assert-no-5xx turn the
// run into a CI smoke gate.
func serveLoad() {
	baseURL := *loadURL
	var inproc *serve.Server
	if baseURL == "" {
		opts := serve.DefaultOptions()
		s := serve.New(opts)
		s.Register(serveInstance, newServeInstance())
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		inproc = s
		baseURL = ts.URL
	}
	client := serveClient()

	// Warm the universe (plain and refined) so the ramp measures serving,
	// not first-touch artifact builds.
	postJSON(client, baseURL+"/v1/query", serve.QueryRequest{Instance: serveInstance, Query: serveCheapQueries[0]})
	postJSON(client, baseURL+"/v1/query", serve.QueryRequest{Instance: serveInstance, Query: serveHeavyQuery, Refine: serveHeavyRefine})

	type sample struct {
		status  int
		latency time.Duration
	}
	var mu sync.Mutex
	var samples []sample

	conc := *loadConc
	if conc < 1 {
		conc = 1
	}
	period := time.Duration(float64(conc) / float64(*loadQPS) * float64(time.Second))
	deadline := time.Now().Add(*loadDur)
	ramp := *loadDur / 2

	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Concurrency ramp: worker w joins proportionally through the
			// first half of the run.
			start := time.Duration(w) * ramp / time.Duration(conc)
			time.Sleep(start)
			send := func(req any) {
				t0 := time.Now()
				status := postJSON(client, baseURL+"/v1/query", req)
				mu.Lock()
				samples = append(samples, sample{status: status, latency: time.Since(t0)})
				mu.Unlock()
			}
			i := 0
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if i%3 == 0 {
					// The coalescable share of the mix: a duplicate pair of
					// the heavy identical query, fired concurrently — the
					// shape produced by independent clients asking the same
					// question at once.
					heavy := serve.QueryRequest{Instance: serveInstance, Query: serveHeavyQuery, Refine: serveHeavyRefine}
					var pair sync.WaitGroup
					for k := 0; k < 2; k++ {
						pair.Add(1)
						go func() {
							defer pair.Done()
							send(heavy)
						}()
					}
					pair.Wait()
				} else {
					send(serve.QueryRequest{Instance: serveInstance, Query: serveCheapQueries[(w+i)%len(serveCheapQueries)]})
				}
				i++
				if sleep := period - time.Since(t0); sleep > 0 {
					time.Sleep(sleep)
				}
			}
		}(w)
	}
	started := time.Now()
	wg.Wait()
	elapsed := time.Since(started)

	report := serveLoadReport{
		Schema:       "topodb-serveload/v1",
		TargetQPS:    *loadQPS,
		Concurrency:  conc,
		Duration:     loadDur.String(),
		Requests:     len(samples),
		StatusCounts: map[string]int{},
	}
	lat := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		switch {
		case s.status == 0:
			report.StatusCounts["transport_error"]++
		case s.status >= 500:
			report.StatusCounts["5xx"]++
			report.FiveXX++
		case s.status >= 400:
			report.StatusCounts["4xx"]++
		default:
			report.StatusCounts["2xx"]++
			lat = append(lat, s.latency)
		}
	}
	if elapsed > 0 {
		report.ActualQPS = float64(len(samples)) / elapsed.Seconds()
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p*float64(len(lat))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return float64(lat[i].Microseconds()) / 1000
	}
	report.P50Ms, report.P95Ms, report.P99Ms = pct(0.50), pct(0.95), pct(0.99)

	if inproc != nil {
		snap := inproc.Metrics().Snapshot()
		report.CoalesceHits = int64(snap.CoalesceHits())
		report.Shed = int64(snap.Shed)
	} else {
		report.CoalesceHits, report.Shed = scrapeMetrics(client, baseURL)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		check(enc.Encode(report))
	} else {
		fmt.Printf("serve-load: %d requests in %v (%.0f qps of %d target, conc %d)\n",
			report.Requests, elapsed.Round(time.Millisecond), report.ActualQPS, report.TargetQPS, conc)
		fmt.Printf("  status: %v\n", report.StatusCounts)
		fmt.Printf("  latency p50=%.2fms p95=%.2fms p99=%.2fms\n", report.P50Ms, report.P95Ms, report.P99Ms)
		fmt.Printf("  coalesce_hits=%d shed=%d\n", report.CoalesceHits, report.Shed)
	}

	failed := false
	if *assertCoalesce >= 0 && report.CoalesceHits < int64(*assertCoalesce) {
		fmt.Fprintf(os.Stderr, "benchtab: serve-load: coalesce hits %d below required %d\n", report.CoalesceHits, *assertCoalesce)
		failed = true
	}
	if *assertNo5xx && report.FiveXX > 0 {
		fmt.Fprintf(os.Stderr, "benchtab: serve-load: %d 5xx responses, expected none\n", report.FiveXX)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

// scrapeMetrics sums the coalesce/shed counters from a running server's
// /metrics endpoint.
func scrapeMetrics(c *http.Client, baseURL string) (coalesce, shed int64) {
	resp, err := c.Get(baseURL + "/metrics")
	if err != nil {
		return 0, 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			continue
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(fields[0], "topodbd_coalesce_hits_total"):
			coalesce += v
		case fields[0] == "topodbd_shed_total":
			shed = v
		}
	}
	return coalesce, shed
}
