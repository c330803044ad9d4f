// Benchmark harness regenerating the paper's tables and figures. The
// paper is theoretical: its "figures" are example
// separations and classification tables (regenerated and asserted here and
// in cmd/benchtab) and its "tables" are complexity claims (reproduced as
// scaling benchmarks whose shapes — polynomial data complexity, exponential
// witness search — are the paper's predictions).
package topodb

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/fary"
	"topodb/internal/folang"
	"topodb/internal/fourint"
	"topodb/internal/geom"
	"topodb/internal/infer"
	"topodb/internal/invariant"
	"topodb/internal/pointlang"
	"topodb/internal/reldb"
	"topodb/internal/spatial"
	"topodb/internal/thematic"
	"topodb/internal/workload"
)

// ---- F1: Fig 1 — the separations that motivate the paper ----

func BenchmarkFig1Separations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fi, err := fourint.EquivalentInstances(spatial.Fig1a(), spatial.Fig1b())
		if err != nil || !fi {
			b.Fatal("Fig1a/1b must be 4-intersection equivalent")
		}
		t1, _ := invariant.New(spatial.Fig1a())
		t2, _ := invariant.New(spatial.Fig1b())
		if invariant.Equivalent(t1, t2) {
			b.Fatal("Fig1a/1b must not be H-equivalent")
		}
	}
}

// ---- F2: Fig 2 — classifying all eight relations ----

func BenchmarkFig2Classification(b *testing.B) {
	in := spatial.Fig1b()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fourint.AllPairs(in); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- T3.4/T3.5: invariant computation scales polynomially ----

func benchInvariant(b *testing.B, in *spatial.Instance) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := invariant.New(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvariantScalingGrid(b *testing.B) {
	for _, n := range []int{2, 4, 6, 8} {
		b.Run(fmt.Sprintf("n=%d_regions=%d", n, n*n), func(b *testing.B) {
			benchInvariant(b, workload.RectGrid(n))
		})
	}
}

func BenchmarkInvariantScalingChain(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchInvariant(b, workload.OverlapChain(n))
		})
	}
}

func BenchmarkInvariantScalingLens(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchInvariant(b, workload.LensStack(n))
		})
	}
}

func BenchmarkInvariantScalingNested(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchInvariant(b, workload.NestedRings(n))
		})
	}
}

// ---- C3.7: querying the thematic instance vs recomputing geometry ----

func BenchmarkThematicVsDirect(b *testing.B) {
	in := workload.CountyMesh(3)
	// The query: some face inside two named mesh cells (false — they are
	// adjacent, not overlapping) plus one containment probe.
	q := reldb.Exists{Var: "f", F: reldb.And{Fs: []reldb.Formula{
		reldb.Atom{Rel: "RegionFaces", Terms: []reldb.Term{reldb.C("Cty_0_0"), reldb.V("f")}},
		reldb.Atom{Rel: "RegionFaces", Terms: []reldb.Term{reldb.C("Cty_1_1"), reldb.V("f")}},
	}}}
	b.Run("direct_geometry_each_time", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db, err := thematic.FromInstance(in) // rebuild + query
			if err != nil {
				b.Fatal(err)
			}
			if ok, err := reldb.Eval(db, q); err != nil || ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("on_precomputed_thematic", func(b *testing.B) {
		db, err := thematic.FromInstance(in)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := reldb.Eval(db, q); err != nil || ok {
				b.Fatal(ok, err)
			}
		}
	})
}

// ---- T3.8: validating invariants ----

func BenchmarkValidateScaling(b *testing.B) {
	for _, n := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("mesh=%dx%d", n, n), func(b *testing.B) {
			db, err := thematic.FromInstance(workload.CountyMesh(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := thematic.Validate(db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- T3.5b: polygonal representative round trip ----

func BenchmarkFaryRoundTrip(b *testing.B) {
	in := workload.CirclePair(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		poly, err := fary.Polygonalize(in, 2)
		if err != nil {
			b.Fatal(err)
		}
		t1, _ := invariant.New(in)
		t2, _ := invariant.New(poly)
		if !invariant.Equivalent(t1, t2) {
			b.Fatal("round trip lost the invariant")
		}
	}
}

// ---- T5.2/T5.6: equivalence-class decision (the effective normal form) ----

func BenchmarkEquivalenceDecision(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			t1, err := invariant.New(workload.OverlapChain(n))
			if err != nil {
				b.Fatal(err)
			}
			t2, err := invariant.New(workload.OverlapChain(n))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !invariant.Equivalent(t1, t2) {
					b.Fatal("identical instances must be equivalent")
				}
			}
		})
	}
}

// ---- P6.2/C6.3: Σ1 satisfiability (NP-hard — exponential search) ----

func BenchmarkSigma1Satisfiability(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(fmt.Sprintf("vars=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nw := infer.NewNetwork(n)
				for j := 0; j+1 < n; j++ {
					nw.Constrain(j, j+1, infer.S(fourint.Meet, fourint.Overlap))
				}
				nw.Constrain(0, n-1, infer.S(fourint.Disjoint))
				if nw.Solve() == nil {
					b.Fatal("chain network should be satisfiable")
				}
			}
		})
	}
}

// ---- T6.4: FO(Rect, ·) data complexity is polynomial ----

func BenchmarkRectDataComplexity(b *testing.B) {
	// Fixed query, growing data.
	const q = "some cell r: subset(r, C000) and subset(r, C001)"
	for _, n := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			in := workload.OverlapChain(n)
			u, err := folang.NewUniverse(in, 0)
			if err != nil {
				b.Fatal(err)
			}
			ev := folang.NewEvaluator(u)
			f := folang.MustParse(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, err := ev.Eval(f); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

// ---- T6.5: query complexity grows with quantifier nesting ----

func BenchmarkRectQueryComplexity(b *testing.B) {
	in := workload.OverlapChain(6)
	u, err := folang.NewUniverse(in, 0)
	if err != nil {
		b.Fatal(err)
	}
	queries := map[string]string{
		"depth1": "some cell x: subset(x, C000)",
		"depth2": "some cell x: some cell y: subset(x, C000) and connect(x, y)",
		"depth3": "some cell x: some cell y: all cell z: (subset(x, C000) and connect(x, y)) and (connect(z, z) or connect(z, x))",
	}
	for name, q := range queries {
		f := folang.MustParse(q)
		b.Run(name, func(b *testing.B) {
			ev := folang.NewEvaluator(u)
			for i := 0; i < b.N; i++ {
				if _, err := ev.Eval(f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- §7: the tractable cell language scales polynomially in data ----

func BenchmarkCellLangScaling(b *testing.B) {
	const q = `all cell x: all cell y:
	  ((subset(x, A) and subset(x, B)) and (subset(y, A) and subset(y, B)))
	  implies (some region r: ((subset(r, A) and subset(r, B)) and (connect(r, x) and connect(r, y))))`
	for _, k := range []int{0, 2, 4} {
		b.Run(fmt.Sprintf("refine=%d", k), func(b *testing.B) {
			u, err := folang.NewUniverse(spatial.Fig1c(), k)
			if err != nil {
				b.Fatal(err)
			}
			ev := folang.NewEvaluator(u)
			f := folang.MustParse(q)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, err := ev.Eval(f); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		})
	}
}

// ---- T5.8: point language evaluation ----

func BenchmarkPointLanguage(b *testing.B) {
	in := spatial.Fig1b()
	ev := pointlang.NewEvaluator(in)
	f := pointlang.Exists{Var: "p", F: pointlang.And{
		L: pointlang.In{A: "A", P: "p"},
		R: pointlang.And{L: pointlang.In{A: "B", P: "p"}, R: pointlang.In{A: "C", P: "p"}},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := ev.Eval(f); err != nil || ok {
			b.Fatal(ok, err)
		}
	}
}

// ---- Ablation: exact rational predicates vs float64 ----

func BenchmarkAblationPredicateExact(b *testing.B) {
	s := geom.Seg{A: geom.P(0, 0), B: geom.P(1000, 37)}
	u := geom.Seg{A: geom.P(0, 37), B: geom.P(1000, 0)}
	for i := 0; i < b.N; i++ {
		_ = geom.Intersect(s, u)
	}
}

func BenchmarkAblationPredicateFloat(b *testing.B) {
	// The float baseline this library deliberately avoids on decision
	// paths: same intersection via float64 cross products.
	type fp struct{ x, y float64 }
	cross := func(a, b fp) float64 { return a.x*b.y - a.y*b.x }
	sA, sB := fp{0, 0}, fp{1000, 37}
	uA, uB := fp{0, 37}, fp{1000, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d1 := fp{sB.x - sA.x, sB.y - sA.y}
		d2 := fp{uB.x - uA.x, uB.y - uA.y}
		den := cross(d1, d2)
		if den != 0 {
			diff := fp{uA.x - sA.x, uA.y - sA.y}
			_ = cross(diff, d2) / den
		}
	}
}

// ---- Ablation: arrangement cost split (split vs faces vs labels) ----

func BenchmarkAblationArrangementFull(b *testing.B) {
	in := workload.LensStack(6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arrange.Build(in); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation: canonical form cache (Equivalent twice vs fresh) ----

func BenchmarkAblationCanonicalCache(b *testing.B) {
	t1, err := invariant.New(workload.OverlapChain(12))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		_ = t1.Canonical() // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = t1.Canonical()
		}
	})
	b.Run("fresh", func(b *testing.B) {
		in := workload.OverlapChain(12)
		for i := 0; i < b.N; i++ {
			t, err := invariant.New(in)
			if err != nil {
				b.Fatal(err)
			}
			_ = t.Canonical()
		}
	})
}

// ---- Cached query engine: repeated queries skip the arrangement ----

// BenchmarkCachedQuery contrasts a cold query (fresh instance: the
// arrangement and universe are built from scratch) with warm queries on an
// unchanged instance, which hit the generation-stamped artifact cache and
// reduce to pure relational evaluation over the memoized cell complex.
// The caching engine's acceptance bar is warm >= 5x faster than cold.
func BenchmarkCachedQuery(b *testing.B) {
	const q = "some cell r: subset(r, C000) and subset(r, C001)"
	queries := []string{
		q,
		"overlap(C000, C001)",
		"disjoint(C000, C011)",
		"meet(C002, C003)",
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			db := wrap(workload.OverlapChain(12))
			if ok, err := db.Query(q); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		db := wrap(workload.OverlapChain(12))
		if ok, err := db.Query(q); err != nil || !ok {
			b.Fatal(ok, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := db.Query(q); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("warm_batch", func(b *testing.B) {
		db := wrap(workload.OverlapChain(12))
		if _, err := db.QueryBatch(queries); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.QueryBatch(queries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPreparedQuery contrasts warm evaluation through a
// PreparedQuery (parsed once at prepare time) with the parse-per-call
// Query path on the same cached universe: the delta is exactly the
// per-call parse + analysis cost, which preparation eliminates.
func BenchmarkPreparedQuery(b *testing.B) {
	const q = "some cell r: subset(r, C000) and subset(r, C001)"
	db := wrap(workload.OverlapChain(12))
	pq, err := db.Prepare(q)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if ok, err := pq.Eval(ctx); err != nil || !ok {
		b.Fatal(ok, err)
	}
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ok, err := pq.Eval(ctx); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("unprepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if ok, err := db.Query(q); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
	b.Run("prepared_snapshot", func(b *testing.B) {
		// The fully pinned serving path: one snapshot, one prepared
		// query, zero per-call locking beyond the artifact map hit.
		s := db.Snapshot()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if ok, err := pq.EvalOn(ctx, s, 0); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
	})
}

// BenchmarkCachedRelate measures the all-pairs path: cold rebuilds the
// arrangement per call (fresh instance), warm classifies from the cached
// one.
func BenchmarkCachedRelate(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db := wrap(workload.LensStack(8))
			if _, err := db.AllRelations(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		db := wrap(workload.LensStack(8))
		if _, err := db.AllRelations(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.AllRelations(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Parallel arrangement: the pairwise split on a worker pool ----

// BenchmarkParallelArrange measures arrange.Build with the worker pool at
// the machine's GOMAXPROCS against the sequential reference (GOMAXPROCS=1
// routes every par helper onto the one-worker path). The combinatorial
// output is identical either way (see arrange's determinism tests).
func BenchmarkParallelArrange(b *testing.B) {
	in := workload.LensStack(16)
	b.Run(fmt.Sprintf("parallel/procs=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := arrange.Build(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := arrange.Build(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelAllPairs measures the worker-pool pair classification
// against the sequential path on a dense instance.
func BenchmarkParallelAllPairs(b *testing.B) {
	in := workload.LensStack(12)
	a, err := arrange.Build(in)
	if err != nil {
		b.Fatal(err)
	}
	boxes := in.Boxes()
	b.Run(fmt.Sprintf("parallel/procs=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fourint.AllPairsFromBoxes(a, boxes); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fourint.AllPairsFromBoxes(a, boxes); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Sub-quadratic cold construction: the plane-sweep split ----

// benchColdBuild measures a cold arrange.Build of in.
func benchColdBuild(b *testing.B, in *spatial.Instance) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := arrange.Build(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdBuildScatter is the headline cold-build benchmark:
// scattered regions, few intersections — the plane sweep's best case — at
// 200 regions and at 1000, the size cmd/topobench serves.
func BenchmarkColdBuildScatter(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			benchColdBuild(b, workload.SparseScatter(n))
		})
	}
}

// BenchmarkArrangeCityBlocks is the sweep's adversarial case: a dense
// street mesh where nearly every pair of boxes overlaps, so the sweep
// prunes little.
func BenchmarkArrangeCityBlocks(b *testing.B) {
	benchColdBuild(b, workload.CityBlocks(24))
}

// BenchmarkAllPairsScatter measures the all-pairs classifier on a scatter
// arrangement, where box-disjoint pairs dominate and the bounding-box
// prune skips most matrix scans.
func BenchmarkAllPairsScatter(b *testing.B) {
	in := workload.SparseScatter(150)
	a, err := arrange.Build(in)
	if err != nil {
		b.Fatal(err)
	}
	boxes := in.Boxes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fourint.AllPairsFromBoxes(a, boxes); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- F14: the S-invariant (Theorem 6.1 / Fig 14) ----

func BenchmarkSInvariant(b *testing.B) {
	in := workload.RectGrid(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := invariant.SInvariant(in); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- T5.2/Prop 5.1: generating and checking the class-defining sentence ----

func BenchmarkSigmaTI(b *testing.B) {
	u, err := folang.NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		b.Fatal(err)
	}
	sigma := folang.SigmaTI(u)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := folang.NewEvaluator(u)
		ok, err := ev.Eval(sigma)
		if err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// ---- Incremental artifact maintenance: delta-bound mutation cost ----

// BenchmarkIncrementalAdd is the headline incremental benchmark: deriving
// the arrangement after a single-region Add on a warm n=200 scatter
// instance, against the cold rebuild of the same 201-region instance.
func BenchmarkIncrementalAdd(b *testing.B) {
	base := workload.SparseScatter(200)
	parent, err := arrange.Build(base)
	if err != nil {
		b.Fatal(err)
	}
	grown := base.Clone()
	grown.MustAdd("Znew", workload.SparseScatter(201).MustExt("S0200"))
	ctx := context.Background()
	if _, err := arrange.Insert(ctx, parent, grown, "Znew"); err != nil {
		b.Fatal(err) // warm the parent's point-location index
	}
	b.Run("incremental", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := arrange.Insert(ctx, parent, grown, "Znew"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := arrange.Build(grown); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalApply measures the full serving path: Apply one
// region, then pin a snapshot and read its arrangement-backed invariant —
// the cache derives the new generation incrementally from the previous
// one. The instance is rebuilt every batch of iterations to stay under the
// region capacity.
func BenchmarkIncrementalApply(b *testing.B) {
	const capacity = 40 // adds per warm instance before a rebuild
	base := workload.SparseScatter(200)
	db := Wrap(base.Clone())
	if _, err := db.Invariant(); err != nil {
		b.Fatal(err)
	}
	added := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if added == capacity {
			b.StopTimer()
			db = Wrap(base.Clone())
			if _, err := db.Invariant(); err != nil {
				b.Fatal(err)
			}
			added = 0
			b.StartTimer()
		}
		x := int64(1000 + 3*added)
		if err := db.Apply(func(tx *Txn) error {
			return tx.AddRect(fmt.Sprintf("zz%04d", added), x, 0, x+2, 2)
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Invariant(); err != nil {
			b.Fatal(err)
		}
		added++
	}
}

// BenchmarkFaceOfPoint measures point location through the persistent
// x-interval index, on face-interior probes across a scatter arrangement.
func BenchmarkFaceOfPoint(b *testing.B) {
	a, err := arrange.Build(workload.SparseScatter(200))
	if err != nil {
		b.Fatal(err)
	}
	var pts []geom.Pt
	for fi := range a.Faces {
		pts = append(pts, a.Faces[fi].Sample)
	}
	if _, err := a.FaceOfPoint(pts[0]); err != nil {
		b.Fatal(err) // warm the index
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.FaceOfPoint(pts[i%len(pts)]); err != nil {
			b.Fatal(err)
		}
	}
}
