package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"topodb"
)

// The traced run replays a workload's op stream sequentially. Each op is
// an "op.<kind>" root span with three phases:
//
//   - public: the op through the public topodb API on the served instance
//     (topodb.* spans), paying exactly what the server pays for it;
//   - replay: the same op through each layer's exported functions on the
//     replay's own artifact chain, in the order cache.go calls them
//     (spatial.*, arrange.*, fourint.*, folang.*, invariant.* spans);
//   - probe: warm reads of the op's pair on the generation it produced,
//     over HTTP (serve.*), through the library (topodb.warm_*) and
//     through the replay, so the serving tier's overhead is measured on
//     the same generation as the library call it wraps.
//
// Spans live in memory and are written at exit. A span's self time is its
// duration minus the time its child spans cover. trace.coverage is the
// replay phase's stage time over the public phase's: near 1 means the
// replay still does what the program does.

// span is one timed interval of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Op     int    `json:"op"`     // op sequence number; 0 is set-up
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes"` // heap allocated while open
}

// tracer records spans. The traced run is sequential, so open spans form
// a stack and need no locking.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	open  []int
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	id := len(t.spans) + 1
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.op, Name: name})
	t.open = append(t.open, id)
	a0, start := allocBytes(), time.Since(t.t0)
	err := f()
	end, a1 := time.Since(t.t0), allocBytes()
	s := &t.spans[id-1] // f may have grown t.spans
	s.Start, s.End, s.Alloc = start.Nanoseconds(), end.Nanoseconds(), a1-a0
	t.open = t.open[:len(t.open)-1]
	return err
}

// tracedRun is the state of one traced run.
type tracedRun struct {
	h          *harness
	tr         *tracer
	rp         *replay
	w          workload
	seq        int     // ops so far; spans of op 0 are set-up
	inc, cold  float64 // artifact derivations during ops
	opsByKind  map[string]int
	budgetLeft time.Duration
}

// runTraced replays the workload's op stream for budget and returns the
// per-layer table; the spans go to path.
func runTraced(out io.Writer, h *harness, w workload, seed int64, budget time.Duration, path string) (table, error) {
	r := &tracedRun{h: h, tr: &tracer{t0: time.Now()}, w: w, opsByKind: map[string]int{}, budgetLeft: budget}
	var err error
	if w.perEpisode > 0 {
		err = r.edits(seed)
	} else {
		err = r.reads(seed)
	}
	if err != nil {
		return nil, err
	}
	if err := writeSpans(path, w.name, seed, r.tr.spans); err != nil {
		return nil, err
	}
	return r.layers(out), nil
}

// op runs one traced op, charging its time to the budget and its artifact
// derivations to the run.
func (r *tracedRun) op(kind string, f func() error) {
	r.seq++
	r.tr.op = r.seq
	r.opsByKind[kind]++
	before, start := topodb.ArtifactDerivationCounts(), time.Now()
	err := r.tr.do("op."+kind, f)
	r.budgetLeft -= time.Since(start)
	inc, cold := derivDelta(before, topodb.ArtifactDerivationCounts())
	r.inc += inc
	r.cold += cold
	r.h.attempted.Add(1)
	if err != nil {
		r.h.failed.Add(1)
		r.h.note("traced %s: %v", kind, err)
	}
}

// setup serves rs, builds the replay over it, and warms both with one
// probe of a, b, charging the time to the budget.
func (r *tracedRun) setup(rs []rect, served func() error, a, b rect) error {
	r.rp = nil // the previous episode's replay is garbage now
	r.h.reset()
	start := time.Now()
	defer func() { r.budgetLeft -= time.Since(start) }()
	r.tr.op = 0
	return r.tr.do("setup", func() error {
		if err := served(); err != nil {
			return err
		}
		var err error
		if r.rp, err = newReplay(r.tr, rs); err != nil {
			return err
		}
		if r.w.invariant {
			if _, err := r.rp.canonical(); err != nil {
				return err
			}
		}
		if r.w.side == 0 {
			if _, err := r.rp.eval(cellQuery(a.Name, b.Name), refineK); err != nil {
				return err
			}
		}
		return r.probe(a, b)
	})
}

func (r *tracedRun) edits(seed int64) error {
	for ep := 0; r.budgetLeft > 0; ep++ {
		metro := newMetro(episodeSeed(seed, ep), r.w.n, r.w.side)
		served := func() error {
			_, err := setupMetro(r.h, r.w, metro)
			return err
		}
		if err := r.setup(metro.Rects, served, metro.Rects[0], metro.Rects[1]); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		rng := rand.New(rand.NewSource(episodeSeed(seed, ep) + 1))
		for i := 0; i < r.w.perEpisode && r.budgetLeft > 0; i++ {
			added, nbr := metro.edit(rng, fmt.Sprintf("E%04d", i), i)
			r.op("edit", func() error { return r.edit(added, nbr) })
		}
	}
	return nil
}

// edit is one metro edit: public, replay, probe.
func (r *tracedRun) edit(added, nbr rect) error {
	tr := r.tr
	var snap *topodb.Snapshot
	var served string
	err := tr.do("public", func() (err error) {
		if snap, err = r.libApply(added); err != nil {
			return err
		}
		if r.w.invariant {
			return tr.do("topodb.invariant", func() error {
				inv, err := snap.Invariant()
				if err == nil {
					served = inv.Canonical()
				}
				return err
			})
		}
		if err := tr.do("topodb.relate", func() error { return r.libRelate(snap, added, nbr) }); err != nil {
			return err
		}
		return tr.do("topodb.query", func() error { return r.libQuery(snap, added, nbr, 0) })
	})
	if err != nil {
		return err
	}
	err = tr.do("replay", func() error {
		if err := r.rp.add(added); err != nil {
			return err
		}
		if r.w.invariant {
			c, err := r.rp.canonical()
			if err == nil && c != served {
				r.h.mismatch("replayed canonical invariant after %s differs from the served one", added.Name)
			}
			return err
		}
		return r.replayReads(added, nbr, "relate", "query")
	})
	if err != nil {
		return err
	}
	return r.probe(added, nbr)
}

// editEvery is how many traced scatter_mixed ops make one edit. Untraced,
// one reader completes a few hundred reads per second against 5 edits per
// second; the sequential replay reads several times slower, so 1 in 50
// keeps most generations read several times before the next edit.
const editEvery = 50

func (r *tracedRun) reads(seed int64) error {
	s := newScatter(seed, r.w.n)
	p := s.Pairs[0]
	served := func() error { return setupScatter(r.h, s) }
	if err := r.setup(s.Rects, served, s.Rects[p[0]], s.Rects[p[1]]); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	rng := rand.New(rand.NewSource(episodeSeed(seed, 100)))
	wrng := rand.New(rand.NewSource(episodeSeed(seed, 200)))
	for i := 0; r.budgetLeft > 0; i++ {
		if r.w.writeRate > 0 && i%editEvery == editEvery-1 {
			added := s.edit(wrng, fmt.Sprintf("W%04d", i))
			r.op("edit", func() error { return r.scatterEdit(added) })
			continue
		}
		kind, a, b := readKind(s, rng)
		r.op("read", func() error { return r.read(kind, a, b) })
	}
	return nil
}

func (r *tracedRun) scatterEdit(added rect) error {
	err := r.tr.do("public", func() error {
		_, err := r.libApply(added)
		return err
	})
	if err != nil {
		return err
	}
	return r.tr.do("replay", func() error { return r.rp.add(added) })
}

// libApply commits one rect through the library and pins the generation
// it made, which clones the region table as the server's next read would.
func (r *tracedRun) libApply(added rect) (snap *topodb.Snapshot, err error) {
	err = r.tr.do("topodb.apply", func() error {
		err := r.h.db.Apply(func(tx *topodb.Txn) error { return tx.AddRect(added.Name, added.X1, added.Y1, added.X2, added.Y2) })
		snap = r.h.db.Snapshot()
		return err
	})
	return snap, err
}

// read is one scatter read: public, replay, probe.
func (r *tracedRun) read(kind string, a, b rect) error {
	tr := r.tr
	snap := r.h.db.Snapshot()
	err := tr.do("public", func() error {
		switch kind {
		case "relate":
			return tr.do("topodb.relate", func() error { return r.libRelate(snap, a, b) })
		case "query":
			return tr.do("topodb.query", func() error { return r.libQuery(snap, a, b, 0) })
		}
		return tr.do("topodb.refined", func() error { return r.libQuery(snap, a, b, refineK) })
	})
	if err != nil {
		return err
	}
	if err := tr.do("replay", func() error { return r.replayReads(a, b, kind) }); err != nil {
		return err
	}
	return r.probe(a, b)
}

// replayReads runs reads of the given kinds through the replay and checks
// them against the oracle.
func (r *tracedRun) replayReads(a, b rect, kinds ...string) error {
	for _, kind := range kinds {
		switch kind {
		case "relate":
			rel, err := r.rp.relate(a.Name, b.Name)
			if err != nil {
				return err
			}
			if want := relation(a, b); rel != want {
				r.h.mismatch("replayed relate(%s, %s) = %s, want %s", a.Name, b.Name, rel, want)
			}
		default:
			k := 0
			if kind == "refined" {
				k = refineK
			}
			ok, err := r.rp.eval(cellQuery(a.Name, b.Name), k)
			if err != nil {
				return err
			}
			if want := interiorsOverlap(a, b); ok != want {
				r.h.mismatch("replayed query(%s, %s, k=%d) = %v, want %v", a.Name, b.Name, k, ok, want)
			}
		}
	}
	return nil
}

// probe reads a, b warm on the current generation: once untimed to warm
// it, then through the library, over HTTP, and through the replay.
func (r *tracedRun) probe(a, b rect) error {
	tr := r.tr
	snap := r.h.db.Snapshot()
	return tr.do("probe", func() error {
		if err := tr.do("probe.warmup", func() error {
			if err := r.libQuery(snap, a, b, 0); err != nil {
				return err
			}
			return r.libRelate(snap, a, b)
		}); err != nil {
			return err
		}
		if err := tr.do("topodb.warm_query", func() error { return r.libQuery(snap, a, b, 0) }); err != nil {
			return err
		}
		if err := tr.do("topodb.warm_relate", func() error { return r.libRelate(snap, a, b) }); err != nil {
			return err
		}
		if err := tr.do("serve.http_query", func() error { return r.h.query(a, b, 0, snap.Gen()) }); err != nil {
			return err
		}
		if err := tr.do("serve.http_relate", func() error { return r.h.relate(a, b, snap.Gen()) }); err != nil {
			return err
		}
		return r.replayReads(a, b, "relate", "query")
	})
}

func (r *tracedRun) libRelate(snap *topodb.Snapshot, a, b rect) error {
	rel, err := snap.Relate(a.Name, b.Name)
	if err != nil {
		return err
	}
	if want := relation(a, b); rel.String() != want {
		r.h.mismatch("library relate(%s, %s) = %s, want %s", a.Name, b.Name, rel, want)
	}
	return nil
}

func (r *tracedRun) libQuery(snap *topodb.Snapshot, a, b rect, k int) error {
	pq, err := r.h.db.Prepare(cellQuery(a.Name, b.Name))
	if err != nil {
		return err
	}
	ok, err := pq.EvalOn(bg, snap, k)
	if err != nil {
		return err
	}
	if want := interiorsOverlap(a, b); ok != want {
		r.h.mismatch("library query(%s, %s, k=%d) = %v, want %v", a.Name, b.Name, k, ok, want)
	}
	return nil
}

// derivDelta sums the artifact derivations between two readings:
// incremental outcomes and cold builds (aliased shards count as neither).
func derivDelta(before, after []topodb.DerivationCount) (inc, cold float64) {
	for i, d := range after {
		n := float64(d.N - before[i].N)
		switch d.Mode {
		case "incremental":
			inc += n
		case "cold":
			cold += n
		}
	}
	return inc, cold
}

// stageStats aggregates the spans of one name.
type stageStats struct {
	durs  []float64 // ms
	alloc float64   // bytes, summed
	self  float64   // ms, summed
}

// layers computes the per-layer table from the spans.
func (r *tracedRun) layers(out io.Writer) table {
	spans := r.tr.spans
	child := make([]float64, len(spans)+1) // ms covered by each span's children
	for _, s := range spans {
		child[s.Parent] += float64(s.End-s.Start) / 1e6
	}
	// phase of each span: the nearest enclosing public/replay/probe span.
	phase := make([]string, len(spans)+1)
	stages := map[string]*stageStats{}
	phaseTime := map[string]float64{}
	for _, s := range spans {
		switch s.Name {
		case "public", "replay", "probe":
			phase[s.ID] = s.Name
		default:
			phase[s.ID] = phase[s.Parent]
		}
		d := float64(s.End-s.Start) / 1e6
		st := stages[s.Name]
		if st == nil {
			st = &stageStats{}
			stages[s.Name] = st
		}
		st.durs = append(st.durs, d)
		st.alloc += float64(s.Alloc)
		st.self += d - child[s.ID]
		if isStage(s.Name) && s.Op > 0 {
			phaseTime[phase[s.ID]] += d - child[s.ID]
		}
	}
	p50 := func(name string) float64 {
		if st := stages[name]; st != nil {
			return percentile(sorted(st.durs), 0.5)
		}
		return 0
	}
	meanMB := func(name string) float64 {
		if st := stages[name]; st != nil {
			return st.alloc / 1e6 / float64(len(st.durs))
		}
		return 0
	}
	var t table
	t.add("serve.http_ms", p50("serve.http_query"), "ms")
	t.add("serve.overhead_ms", p50("serve.http_query")-p50("topodb.warm_query"), "ms")
	t.add("topodb.warm_query_ms", p50("topodb.warm_query"), "ms")
	t.add("topodb.warm_relate_us", 1000*p50("topodb.warm_relate"), "us")
	t.add("folang.parse_us", 1000*p50("folang.parse"), "us")
	t.add("folang.eval_ms", p50("folang.eval"), "ms")
	t.add("folang.eval_mb", meanMB("folang.eval"), "MB")
	t.add("fourint.relate_us", 1000*p50("fourint.relate"), "us")
	t.add("arrange.cold_build_ms", p50("arrange.cold_build"), "ms")
	t.add("folang.universe_cold_ms", p50("folang.universe_cold"), "ms")
	coverage := phaseTime["replay"] / phaseTime["public"]
	t.add("trace.coverage", coverage, "ratio")
	t.add("topodb.incremental_derivations", r.inc, "count")
	t.add("topodb.cold_derivations", r.cold, "count")
	if coverage < 0.9 || coverage > 1.1 {
		fmt.Fprintf(out, "warning: trace.coverage %.3f is outside [0.9, 1.1]: the replay has drifted from the program's path\n", coverage)
	}
	kinds := make([]string, 0, len(r.opsByKind))
	for kind := range r.opsByKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		t.add("ops."+kind, float64(r.opsByKind[kind]), "count")
	}
	ops := r.seq

	// Every stage, for the human table: p50 and p90 per call, mean MB per
	// call, and self time per op.
	names := make([]string, 0, len(stages))
	for name := range stages {
		if isStage(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		st := stages[name]
		d := sorted(st.durs)
		t.add("stage."+name+".calls", float64(len(d)), "count")
		t.add("stage."+name+".p50_ms", percentile(d, 0.5), "ms")
		t.add("stage."+name+".p90_ms", percentile(d, 0.9), "ms")
		t.add("stage."+name+".mb", st.alloc/1e6/float64(len(d)), "MB")
		t.add("stage."+name+".self_ms_per_op", st.self/float64(max(ops, 1)), "ms")
	}
	return t
}

// isStage reports whether a span is a layer call rather than a grouping
// span (op.*, setup, the three phases, the probe warm-up).
func isStage(name string) bool {
	switch name {
	case "setup", "public", "replay", "probe", "probe.warmup":
		return false
	}
	return !strings.HasPrefix(name, "op.")
}

func writeSpans(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
