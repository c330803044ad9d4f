package main

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"topodb"
	"topodb/internal/serve"
)

// workload is one input set and traffic mix. Edit workloads run in
// episodes: set up a fresh instance, then apply perEpisode single-rect
// edits, so every episode measures the same sequence of instance sizes no
// matter how fast the code is (in one long closed loop, faster code would
// edit more and measure a bigger instance). Read workloads set up once
// and then drive closed-loop readers, plus an open-loop writer on
// scatter_mixed.
type workload struct {
	name       string
	n          int     // regions in the seeded instance
	side       int     // metro district side in blocks; 0 for the scatter
	perEpisode int     // edit workloads: edits per set-up instance
	invariant  bool    // metro op reads the canonical invariant, not a query
	readers    int     // read workloads: closed-loop reader goroutines
	writeRate  float64 // scatter_mixed: edits per second, open loop
}

// workloads are the benchmark's workloads, in BENCHMARK.json's order;
// BENCHMARK.json and README.md say why each exists.
var workloads = []workload{
	{name: "metro_edit", n: 2500, side: 3, perEpisode: 40},
	{name: "metro_invariant", n: 2500, side: 1, perEpisode: 30, invariant: true},
	{name: "scatter_read", n: 1000, readers: 2},
	{name: "scatter_mixed", n: 1000, readers: 1, writeRate: 5},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scatterSetups is how many times a read workload sets its instance up;
// setup_s is their median.
const scatterSetups = 5

// refineK is the refinement level of the refined reads.
const refineK = 2

// episodeSeed derives the input seed of one set-up from the run seed.
func episodeSeed(seed int64, episode int) int64 { return seed*1_000_003 + int64(episode)*7919 }

// measurement collects what an untraced run measures.
type measurement struct {
	setups  []float64 // seconds per set-up
	lat     []float64 // ms per measured operation
	opTime  time.Duration
	allocs  uint64 // heap bytes allocated by the measured operations
	extra   table  // workload-specific rows for the human table
	serveAt serve.Snapshot
	derivAt []topodb.DerivationCount
}

// runE2E runs a workload untraced and returns its table: every end-to-end
// metric, then workload-specific rows.
func runE2E(out io.Writer, h *harness, w workload, seed int64, budget time.Duration) (table, error) {
	heap := startHeapSampler()
	var m measurement
	var err error
	if w.perEpisode > 0 {
		err = runEdits(h, w, seed, budget, &m)
	} else {
		err = runReads(h, w, seed, budget, &m)
	}
	liveHeap, peakHeap := heap.Stop()
	if err != nil {
		return nil, err
	}
	lat := sorted(m.lat)
	var t table
	t.add("setup_s", percentile(sorted(m.setups), 0.5), "s")
	t.add("op_p50_ms", percentile(lat, 0.5), "ms")
	t.add("op_p90_ms", percentile(lat, 0.9), "ms")
	t.add("ops_per_s", float64(len(lat))/m.opTime.Seconds(), "1/s")
	t.add("alloc_mb_per_op", float64(m.allocs)/1e6/float64(len(lat)), "MB")
	t.add("live_heap_mb", liveHeap, "MB")
	t.add("ops", float64(len(lat)), "count")
	t.add("setups", float64(len(m.setups)), "count")
	t.add("peak_live_heap_mb", peakHeap, "MB")
	if beyond := float64(len(lat)) * 0.1; beyond < 10 {
		fmt.Fprintf(out, "note: op_p90_ms has only %.0f samples beyond it\n", beyond)
	}
	t = append(t, m.extra...)
	t = append(t, serveRows(m.serveAt, h.srv.Metrics().Snapshot())...)
	t = append(t, derivationRows(m.derivAt, topodb.ArtifactDerivationCounts())...)
	return t, nil
}

// serveRows reports the serving tier's counters between two snapshots.
func serveRows(before, after serve.Snapshot) table {
	var t table
	flushes := after.BatchFlushes - before.BatchFlushes
	if flushes > 0 {
		t.add("serve.batch_size_mean", float64(after.BatchQueries-before.BatchQueries)/float64(flushes), "queries")
	}
	t.add("serve.coalesce_hits", float64(after.CoalesceHits()-before.CoalesceHits()), "count")
	t.add("serve.shed", float64(after.Shed-before.Shed), "count")
	return t
}

// derivationRows reports how artifacts were derived between two readings.
func derivationRows(before, after []topodb.DerivationCount) table {
	inc, cold := derivDelta(before, after)
	var t table
	t.add("topodb.incremental_derivations", inc, "count")
	t.add("topodb.cold_derivations", cold, "count")
	return t
}

// runEdits drives metro_edit or metro_invariant: one closed-loop client,
// episodes of set-up plus perEpisode edits, until set-ups and edits have
// taken budget. Each edit is timed from sending /v1/apply to the answer
// of the read that follows it on the new generation.
func runEdits(h *harness, w workload, seed int64, budget time.Duration, m *measurement) error {
	m.serveAt, m.derivAt = h.srv.Metrics().Snapshot(), topodb.ArtifactDerivationCounts()
	var spent time.Duration
	var last []rect // the final episode's instance, for the invariant check
	var canonical string
	for ep := 0; spent < budget; ep++ {
		h.reset()
		start := time.Now()
		metro := newMetro(episodeSeed(seed, ep), w.n, w.side)
		var err error
		if canonical, err = setupMetro(h, w, metro); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		spent += d
		m.setups = append(m.setups, d.Seconds())
		last = append([]rect(nil), metro.Rects...)
		rng := rand.New(rand.NewSource(episodeSeed(seed, ep) + 1))
		for i := 0; i < w.perEpisode && spent < budget; i++ {
			added, nbr := metro.edit(rng, fmt.Sprintf("E%04d", i), i)
			a0, t0 := allocBytes(), time.Now()
			canon, applied, err := editOp(h, w, added, nbr)
			d := time.Since(t0)
			m.allocs += allocBytes() - a0
			spent += d
			m.opTime += d
			m.lat = append(m.lat, ms(d))
			h.attempted.Add(1)
			if err != nil {
				h.failed.Add(1)
				h.note("edit %s: %v", added.Name, err)
			}
			if applied {
				last = append(last, added)
				canonical = canon // "" when the read failed: nothing to check
			}
		}
	}
	if w.invariant && canonical != "" {
		return checkCanonical(h, last, canonical)
	}
	return nil
}

// setupMetro serves a fresh metro instance and makes the first, cold read
// of each kind the workload's edits make. On metro_invariant it returns
// the canonical invariant it read.
func setupMetro(h *harness, w workload, m *metro) (string, error) {
	if err := h.load(m.Rects); err != nil {
		return "", err
	}
	if w.invariant {
		return h.invariant(0)
	}
	a, b := m.Rects[0], m.Rects[1]
	if err := h.relate(a, b, 0); err != nil {
		return "", err
	}
	return "", h.query(a, b, 0, 0)
}

// editOp is one measured edit: apply, then either relate and query the
// added rect against its neighbour, or read the canonical invariant.
// applied reports whether the instance now holds the rect.
func editOp(h *harness, w workload, added, nbr rect) (canonical string, applied bool, err error) {
	gen, err := h.apply(added)
	if err != nil {
		return "", false, err
	}
	if w.invariant {
		canonical, err = h.invariant(gen)
		return canonical, true, err
	}
	if err := h.relate(added, nbr, gen); err != nil {
		return "", true, err
	}
	return "", true, h.query(added, nbr, 0, gen)
}

// checkCanonical compares the last served canonical invariant with a cold
// one computed on a fresh instance holding the same regions, outside any
// timing.
func checkCanonical(h *harness, rs []rect, served string) error {
	db := topodb.NewInstance()
	err := db.Apply(func(tx *topodb.Txn) error {
		for _, r := range rs {
			if err := tx.AddRect(r.Name, r.X1, r.Y1, r.X2, r.Y2); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	inv, err := db.Invariant()
	if err != nil {
		return fmt.Errorf("invariant check: %w", err)
	}
	if inv.Canonical() != served {
		h.mismatch("served canonical invariant (%d bytes) differs from a cold one (%d bytes)", len(served), len(inv.Canonical()))
	}
	return nil
}

// runReads drives scatter_read or scatter_mixed: set up scatterSetups
// times, then closed-loop readers, and on scatter_mixed an open-loop
// writer, for budget.
func runReads(h *harness, w workload, seed int64, budget time.Duration, m *measurement) error {
	var s *scatter
	for i := 0; i < scatterSetups; i++ {
		h.reset()
		start := time.Now()
		s = newScatter(seed, w.n)
		if err := setupScatter(h, s); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	m.serveAt, m.derivAt = h.srv.Metrics().Snapshot(), topodb.ArtifactDerivationCounts()
	var ackGen atomic.Uint64 // generation of the last acknowledged edit
	type sample struct {
		kind string
		ms   float64
	}
	samples := make([][]sample, w.readers)
	var edits, late []float64
	var wg sync.WaitGroup
	a0, start := allocBytes(), time.Now()
	deadline := start.Add(budget)
	for r := 0; r < w.readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(episodeSeed(seed, 100+r)))
			for time.Now().Before(deadline) {
				kind, a, b := readKind(s, rng)
				minGen := ackGen.Load()
				t0 := time.Now()
				err := read(h, kind, a, b, minGen)
				samples[r] = append(samples[r], sample{kind, ms(time.Since(t0))})
				h.attempted.Add(1)
				if err != nil {
					h.failed.Add(1)
					h.note("read: %v", err)
				}
			}
		}(r)
	}
	if w.writeRate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			edits, late = write(h, s, w.writeRate, rand.New(rand.NewSource(episodeSeed(seed, 200))), start, deadline, &ackGen)
		}()
	}
	wg.Wait()
	m.opTime = time.Since(start)
	m.allocs = allocBytes() - a0
	byKind := map[string][]float64{}
	for _, ss := range samples {
		for _, x := range ss {
			m.lat = append(m.lat, x.ms)
			byKind[x.kind] = append(byKind[x.kind], x.ms)
		}
	}
	for _, kind := range []string{"query", "relate", "refined"} {
		lat := sorted(byKind[kind])
		m.extra.add("read."+kind+"_p50_ms", percentile(lat, 0.5), "ms")
		m.extra.add("read."+kind+"_p90_ms", percentile(lat, 0.9), "ms")
	}
	if w.writeRate > 0 {
		m.extra.add("edits", float64(len(edits)), "count")
		m.extra.add("edit_p50_ms", percentile(sorted(edits), 0.5), "ms")
		m.extra.add("writer_late_max_ms", percentile(sorted(late), 1), "ms")
	}
	return nil
}

// setupScatter serves a fresh scatter instance and makes the first, cold
// read of each kind.
func setupScatter(h *harness, s *scatter) error {
	if err := h.load(s.Rects); err != nil {
		return err
	}
	p := s.Pairs[0]
	a, b := s.Rects[p[0]], s.Rects[p[1]]
	if err := h.relate(a, b, 0); err != nil {
		return err
	}
	if err := h.query(a, b, 0, 0); err != nil {
		return err
	}
	return h.query(a, b, refineK, 0)
}

// readKind draws one read of the scatter mix: 70% cell queries (half on
// pairs placed in a known relation, half on random pairs), 20% relates
// and 10% refined cell queries on known pairs.
func readKind(s *scatter, rng *rand.Rand) (kind string, a, b rect) {
	u := rng.Intn(100)
	known := u < 35 || (u >= 70 && u < 80) || u >= 90
	if known {
		p := s.Pairs[rng.Intn(len(s.Pairs))]
		a, b = s.Rects[p[0]], s.Rects[p[1]]
	} else {
		i := rng.Intn(len(s.Rects))
		j := (i + 1 + rng.Intn(len(s.Rects)-1)) % len(s.Rects)
		a, b = s.Rects[i], s.Rects[j]
	}
	switch {
	case u < 70:
		return "query", a, b
	case u < 90:
		return "relate", a, b
	}
	return "refined", a, b
}

func read(h *harness, kind string, a, b rect, minGen uint64) error {
	switch kind {
	case "query":
		return h.query(a, b, 0, minGen)
	case "relate":
		return h.relate(a, b, minGen)
	}
	return h.query(a, b, refineK, minGen)
}

// write is the open-loop writer: the i-th edit is due i/rate seconds after
// start and is timed from when it was due, so a stall also delays the
// edits queued behind it. It returns the edit latencies and how late each
// edit was sent, in ms.
func write(h *harness, s *scatter, rate float64, rng *rand.Rand, start, deadline time.Time, ackGen *atomic.Uint64) (lat, late []float64) {
	interval := time.Duration(float64(time.Second) / rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return lat, late
		}
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		gen, err := h.apply(s.edit(rng, fmt.Sprintf("W%04d", i)))
		lat = append(lat, ms(time.Since(due)))
		h.attempted.Add(1)
		if err != nil {
			h.failed.Add(1)
			h.note("edit: %v", err)
			continue
		}
		ackGen.Store(gen)
	}
}
