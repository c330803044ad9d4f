package serve

import (
	"fmt"
	"io"
	"math"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"time"
)

// latencyBuckets are the fixed upper bounds (seconds) of the request
// latency histograms, spanning warm cache hits (~µs) through cold
// arrangement builds and shed deadlines (~s).
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// batchBuckets are the upper bounds of the batch-size histogram.
var batchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// shardBuckets are the upper bounds (seconds) of the per-shard build
// latency histogram: shards are small by design, so the range leans toward
// sub-millisecond builds while keeping room for straddle-merged giants.
var shardBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
	0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}

// histogram is a fixed-bucket cumulative histogram. Guarded by the
// owning Metrics mutex.
type histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is +Inf
	sum    float64
	n      uint64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
}

// HistogramSnapshot is an immutable copy of a histogram for tests and
// reports.
type HistogramSnapshot struct {
	Bounds []float64 // bucket upper bounds; an implicit +Inf follows
	Counts []uint64  // per-bucket (non-cumulative) counts, len(Bounds)+1
	Sum    float64
	Count  uint64
}

// Quantile returns an upper bound for the p-quantile (0 < p <= 1) from
// the bucket boundaries — the histogram analogue of "p99 latency". The
// overflow bucket reports the largest finite bound.
func (h HistogramSnapshot) Quantile(p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p * float64(h.Count)))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			if i < len(h.Bounds) {
				return h.Bounds[i]
			}
			return h.Bounds[len(h.Bounds)-1]
		}
	}
	return h.Bounds[len(h.Bounds)-1]
}

// shardTracker folds one instance's sharded-artifact observability into
// the registry across generations. Per-shard build latencies are observed
// once per generation (aliased shards — BuildNanos 0 — were not built and
// are skipped).
type shardTracker struct {
	gen    uint64
	seen   bool
	shards uint64 // gauge: current generation's shard count
}

// DerivationRow is one (kind, mode, refined) artifact-derivation tally,
// polled from the engine at scrape time. Kind is the derived artifact
// (arrangement, universe, invariant, sinvariant); Mode is how it was
// produced (cold, incremental, aliased); Refined distinguishes the k>0
// (scaffolded) universe derivations from the unrefined slot.
type DerivationRow struct {
	Kind, Mode string
	Refined    bool
	N          uint64
}

// routeMetrics aggregates one route's counters.
type routeMetrics struct {
	requests     uint64
	coalesceHits uint64
	errors       map[string]uint64 // by wire error code
	latency      *histogram
}

// Metrics is the serving tier's observability registry: per-route
// request/latency/coalesce-hit counters, batch-window statistics, and
// admission-shed counts. It renders itself in Prometheus text format on
// /metrics and snapshots into plain structs for tests. All methods are
// safe for concurrent use.
type Metrics struct {
	mu           sync.Mutex
	routes       map[string]*routeMetrics
	shed         uint64
	batchFlushes uint64
	batchQueries uint64
	batchSizes   *histogram
	shardsByDB   map[string]*shardTracker
	shardBuild   *histogram
	derivations  []DerivationRow
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		routes:     make(map[string]*routeMetrics),
		batchSizes: newHistogram(batchBuckets),
		shardsByDB: make(map[string]*shardTracker),
		shardBuild: newHistogram(shardBuckets),
	}
}

func (m *Metrics) route(name string) *routeMetrics {
	rm, ok := m.routes[name]
	if !ok {
		rm = &routeMetrics{errors: make(map[string]uint64), latency: newHistogram(latencyBuckets)}
		m.routes[name] = rm
	}
	return rm
}

// Request records one completed request: its latency and, when code is
// not "ok", the error class.
func (m *Metrics) Request(routeName string, d time.Duration, code string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rm := m.route(routeName)
	rm.requests++
	rm.latency.observe(d.Seconds())
	if code != "" && code != ClassOK.Code {
		rm.errors[code]++
	}
}

// CoalesceHit records a request that shared another request's in-flight
// evaluation instead of computing its own.
func (m *Metrics) CoalesceHit(routeName string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.route(routeName).coalesceHits++
}

// Shed records a request rejected by admission control.
func (m *Metrics) Shed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shed++
}

// ShardStats folds one instance's sharded-artifact reading of generation
// gen into the registry (typically polled at scrape time): the
// shard-count gauge and per-shard build latencies — observed once per
// generation, skipping shards aliased from the parent generation.
func (m *Metrics) ShardStats(db string, gen uint64, shards int, buildNanos []int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t, ok := m.shardsByDB[db]
	if !ok {
		t = &shardTracker{}
		m.shardsByDB[db] = t
	}
	if !t.seen || t.gen != gen {
		for _, ns := range buildNanos {
			if ns > 0 {
				m.shardBuild.observe(float64(ns) / 1e9)
			}
		}
		t.gen, t.seen = gen, true
	}
	t.shards = uint64(shards)
}

// SetDerivations replaces the artifact-derivation rows with the engine's
// current cumulative tallies, preserving the given order. The counters
// are process-global and already monotone, so the registry stores the
// absolute values polled at scrape time rather than accumulating deltas.
func (m *Metrics) SetDerivations(rows []DerivationRow) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.derivations = append(m.derivations[:0], rows...)
}

// BatchFlush records one batch-window flush of n folded queries.
func (m *Metrics) BatchFlush(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batchFlushes++
	m.batchQueries += uint64(n)
	m.batchSizes.observe(float64(n))
}

// RouteSnapshot is an immutable copy of one route's counters.
type RouteSnapshot struct {
	Requests     uint64
	CoalesceHits uint64
	Errors       map[string]uint64
	Latency      HistogramSnapshot
}

// Snapshot is an immutable copy of the whole registry, for tests and the
// load generator's reports.
type Snapshot struct {
	Routes       map[string]RouteSnapshot
	Shed         uint64
	BatchFlushes uint64
	BatchQueries uint64
	BatchSizes   HistogramSnapshot
	ShardsByDB   map[string]uint64 // shard-count gauge per instance
	ShardBuild   HistogramSnapshot // per-shard build latency
	Derivations  []DerivationRow   // artifact-derivation tallies, engine order
}

// CoalesceHits sums coalesce hits across routes.
func (s Snapshot) CoalesceHits() uint64 {
	var n uint64
	for _, r := range s.Routes {
		n += r.CoalesceHits
	}
	return n
}

// Errors sums per-route error counts for one code ("" sums all codes).
func (s Snapshot) Errors(code string) uint64 {
	var n uint64
	for _, r := range s.Routes {
		for c, v := range r.Errors {
			if code == "" || c == code {
				n += v
			}
		}
	}
	return n
}

func snapHistogram(h *histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: h.bounds, // bounds are never mutated after construction
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.n,
	}
}

// Snapshot copies the registry.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Routes:       make(map[string]RouteSnapshot, len(m.routes)),
		Shed:         m.shed,
		BatchFlushes: m.batchFlushes,
		BatchQueries: m.batchQueries,
		BatchSizes:   snapHistogram(m.batchSizes),
		ShardsByDB:   make(map[string]uint64, len(m.shardsByDB)),
		ShardBuild:   snapHistogram(m.shardBuild),
		Derivations:  append([]DerivationRow(nil), m.derivations...),
	}
	for db, t := range m.shardsByDB {
		s.ShardsByDB[db] = t.shards
	}
	for name, rm := range m.routes {
		errs := make(map[string]uint64, len(rm.errors))
		for c, v := range rm.errors {
			errs[c] = v
		}
		s.Routes[name] = RouteSnapshot{
			Requests:     rm.requests,
			CoalesceHits: rm.coalesceHits,
			Errors:       errs,
			Latency:      snapHistogram(rm.latency),
		}
	}
	return s
}

// WriteTo renders the registry in Prometheus text exposition format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	s := m.Snapshot()
	var total int64
	p := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	routeNames := make([]string, 0, len(s.Routes))
	for name := range s.Routes {
		routeNames = append(routeNames, name)
	}
	sort.Strings(routeNames)

	if err := p("# TYPE topodbd_requests_total counter\n"); err != nil {
		return total, err
	}
	for _, name := range routeNames {
		if err := p("topodbd_requests_total{route=%q} %d\n", name, s.Routes[name].Requests); err != nil {
			return total, err
		}
	}
	if err := p("# TYPE topodbd_coalesce_hits_total counter\n"); err != nil {
		return total, err
	}
	for _, name := range routeNames {
		if err := p("topodbd_coalesce_hits_total{route=%q} %d\n", name, s.Routes[name].CoalesceHits); err != nil {
			return total, err
		}
	}
	if err := p("# TYPE topodbd_errors_total counter\n"); err != nil {
		return total, err
	}
	for _, name := range routeNames {
		codes := make([]string, 0, len(s.Routes[name].Errors))
		for c := range s.Routes[name].Errors {
			codes = append(codes, c)
		}
		sort.Strings(codes)
		for _, c := range codes {
			if err := p("topodbd_errors_total{route=%q,code=%q} %d\n", name, c, s.Routes[name].Errors[c]); err != nil {
				return total, err
			}
		}
	}
	for _, name := range routeNames {
		if err := writeHistogram(p, "topodbd_request_seconds", fmt.Sprintf("route=%q", name), s.Routes[name].Latency); err != nil {
			return total, err
		}
	}
	if err := p("# TYPE topodbd_shed_total counter\ntopodbd_shed_total %d\n", s.Shed); err != nil {
		return total, err
	}
	if err := p("# TYPE topodbd_batch_flushes_total counter\ntopodbd_batch_flushes_total %d\n", s.BatchFlushes); err != nil {
		return total, err
	}
	if err := p("# TYPE topodbd_batch_queries_total counter\ntopodbd_batch_queries_total %d\n", s.BatchQueries); err != nil {
		return total, err
	}
	if err := writeHistogram(p, "topodbd_batch_size", "", s.BatchSizes); err != nil {
		return total, err
	}
	if len(s.ShardsByDB) > 0 {
		if err := p("# TYPE topodbd_shards gauge\n"); err != nil {
			return total, err
		}
		dbNames := make([]string, 0, len(s.ShardsByDB))
		for db := range s.ShardsByDB {
			dbNames = append(dbNames, db)
		}
		sort.Strings(dbNames)
		for _, db := range dbNames {
			if err := p("topodbd_shards{db=%q} %d\n", db, s.ShardsByDB[db]); err != nil {
				return total, err
			}
		}
		if err := writeHistogram(p, "topodbd_shard_build_seconds", "", s.ShardBuild); err != nil {
			return total, err
		}
	}
	if len(s.Derivations) > 0 {
		if err := p("# TYPE topodbd_artifact_derivations_total counter\n"); err != nil {
			return total, err
		}
		// Rendered in the engine's fixed (kind, mode, refined) order —
		// every row is always present, zero-valued or not, so scrapes are
		// deterministic. The refined label is carried on every row for a
		// consistent label set; it is "true" only on k>0 universe rows.
		for _, d := range s.Derivations {
			refined := "false"
			if d.Refined {
				refined = "true"
			}
			if err := p("topodbd_artifact_derivations_total{kind=%q,mode=%q,refined=%q} %d\n", d.Kind, d.Mode, refined, d.N); err != nil {
				return total, err
			}
		}
	}
	if err := writeGoRuntime(p, readGoRuntime()); err != nil {
		return total, err
	}
	return total, nil
}

// goRuntimeSeries are the Go heap and GC series /metrics exports, each
// read from runtime/metrics on every scrape (nothing is sampled between
// scrapes).
var goRuntimeSeries = []struct{ name, kind, key string }{
	{"topodbd_go_heap_live_bytes", "gauge", "/gc/heap/live:bytes"},
	{"topodbd_go_heap_alloc_bytes_total", "counter", "/gc/heap/allocs:bytes"},
	{"topodbd_go_gc_cycles_total", "counter", "/gc/cycles/total:gc-cycles"},
}

// readGoRuntime reads goRuntimeSeries' current values, in order; a series
// the runtime does not support reads as 0.
func readGoRuntime() []uint64 {
	samples := make([]rtmetrics.Sample, len(goRuntimeSeries))
	for i, s := range goRuntimeSeries {
		samples[i].Name = s.key
	}
	rtmetrics.Read(samples)
	vals := make([]uint64, len(samples))
	for i, s := range samples {
		if s.Value.Kind() == rtmetrics.KindUint64 {
			vals[i] = s.Value.Uint64()
		}
	}
	return vals
}

// writeGoRuntime renders goRuntimeSeries with the given values.
func writeGoRuntime(p func(string, ...any) error, vals []uint64) error {
	for i, s := range goRuntimeSeries {
		if err := p("# TYPE %s %s\n%s %d\n", s.name, s.kind, s.name, vals[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(p func(string, ...any) error, name, label string, h HistogramSnapshot) error {
	if err := p("# TYPE %s histogram\n", name); err != nil {
		return err
	}
	sep := ""
	if label != "" {
		sep = ","
	}
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		if err := p("%s_bucket{%s%sle=%q} %d\n", name, label, sep, fmt.Sprintf("%g", b), cum); err != nil {
			return err
		}
	}
	cum += h.Counts[len(h.Bounds)]
	if err := p("%s_bucket{%s%sle=\"+Inf\"} %d\n", name, label, sep, cum); err != nil {
		return err
	}
	if label != "" {
		label = "{" + label + "}"
	}
	if err := p("%s_sum%s %g\n", name, label, h.Sum); err != nil {
		return err
	}
	return p("%s_count%s %d\n", name, label, h.Count)
}
