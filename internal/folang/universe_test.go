package folang

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/workload"
)

// metroUniverse builds the unrefined universe of the n=2500 metro mosaic
// (13,615 cells) once per test binary.
var metroUniverse = sync.OnceValues(func() (*Universe, error) {
	in := workload.MetroGrid(2500, 3, 0)
	a, err := arrange.Build(in)
	if err != nil {
		return nil, err
	}
	return NewUniverseFromArrangement(a, in)
})

func mustMetroUniverse(tb testing.TB) *Universe {
	tb.Helper()
	u, err := metroUniverse()
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

// TestUniverseExtentsSparse pins the region extents' storage to the
// label support rather than regions × cells: the extents hold exactly as
// many cells as the arrangement has Interior label entries, and building
// the universe allocates less than dense per-region bitsets alone would
// (4.3 MB at n=2500). Region still answers the dense extent, checked
// against an independent scan of every cell's label.
func TestUniverseExtentsSparse(t *testing.T) {
	u := mustMetroUniverse(t)
	a := u.A
	var labels []arrange.Label
	for i := range a.Faces {
		labels = append(labels, a.Faces[i].Label)
	}
	for i := range a.Edges {
		labels = append(labels, a.Edges[i].Label)
	}
	for i := range a.Verts {
		labels = append(labels, a.Verts[i].Label)
	}
	interior := 0
	for _, l := range labels {
		for k := 0; k < l.NumEntries(); k++ {
			if _, s := l.Entry(k); s == arrange.Interior {
				interior++
			}
		}
	}
	if got := len(u.regCells); got != interior {
		t.Fatalf("extents hold %d cells, the arrangement %d Interior label entries", got, interior)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := NewUniverseFromArrangement(a, u.In); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	dense := len(a.Names) * ((u.NumCells() + 63) / 64) * 8
	alloc := int(after.TotalAlloc - before.TotalAlloc)
	t.Logf("%d regions, %d cells: universe build allocated %d B; dense extents would take %d B", len(a.Names), u.NumCells(), alloc, dense)
	if alloc >= dense {
		t.Fatalf("universe build allocated %d B, at least the %d B of dense extents", alloc, dense)
	}

	for ri, name := range a.Names {
		want := NewBits(u.NumCells())
		for c, l := range labels {
			if l.At(ri) == arrange.Interior {
				want.Set(c)
			}
		}
		if got := u.Region(name); !got.Equal(want) {
			t.Fatalf("Region(%s) = %d cells, the label scan %d", name, got.Count(), want.Count())
		}
	}
}

// BenchmarkEvalNameQuantMetro times a name-quantified query on the
// n=2500 metro mosaic: every region's dense set and closure is built
// once, and each binding runs one 4-intersection matrix against the
// fixed region.
func BenchmarkEvalNameQuantMetro(b *testing.B) {
	u := mustMetroUniverse(b)
	f := MustParse("all name x: not overlap(x, Mg000000) or x = Mg000000")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := NewEvaluator(u).Eval(f)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("a metro block overlaps Mg000000")
		}
	}
}

// The structural tables are built on first use. A universe that has
// answered a subset-only cell query holds none; N goroutines running
// connect and meet on one fresh universe build them once — every reader
// gets the same tables — and answer as a universe whose tables were built
// up front does. Run under -race.
func TestUniverseTablesOnFirstUse(t *testing.T) {
	m := mustMetroUniverse(t)
	u, err := NewUniverseFromArrangement(m.A, m.In)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := NewEvaluator(u).Eval(MustParse("some cell r: subset(r, Mg000000) and not subset(r, Mg000001)"))
	if err != nil || !ok {
		t.Fatalf("subset query: %v, %v", ok, err)
	}
	if u.tab != nil {
		t.Fatal("a subset-only cell query built the structural tables")
	}

	in := workload.MetroGrid(144, 3, 0)
	a, err := arrange.Build(in)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Formula{
		MustParse("connect(Mg000000, Mg000001)"),
		MustParse("meet(Mg000000, Mg000001)"),
		MustParse("some cell r: connect(r, Mg000004) and subset(r, Mg000000)"),
		MustParse("meet(Mg000000, Mg000009)"),
	}
	ref, err := NewUniverseFromArrangement(a, in)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, len(queries))
	for i, f := range queries {
		if want[i], err = NewEvaluator(ref).Eval(f); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := NewUniverseFromArrangement(a, in)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	tabs := make([]*cellTables, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(queries)
			got, err := NewEvaluator(fresh).Eval(queries[i])
			if err == nil && got != want[i] {
				err = fmt.Errorf("query %d answered %v, want %v", i, got, want[i])
			}
			tabs[g], errs[g] = fresh.tables(), err
		}(g)
	}
	wg.Wait()
	for g := range tabs {
		if errs[g] != nil {
			t.Fatalf("reader %d: %v", g, errs[g])
		}
		if tabs[g] == nil || tabs[g] != tabs[0] {
			t.Fatalf("reader %d saw tables %p, reader 0 %p", g, tabs[g], tabs[0])
		}
	}
	if ref.Fingerprint() != fresh.Fingerprint() {
		t.Fatal("tables built under concurrent readers fingerprint differently")
	}
}

// BenchmarkUniverseMetro times the unrefined universe one metro_edit
// generation builds: NewUniverseFromArrangementCtx over the stitched
// n=2500 metro arrangement, plus one subset-only cell query on it.
func BenchmarkUniverseMetro(b *testing.B) {
	ctx := context.Background()
	in := workload.MetroGrid(2500, 3, 0)
	sh, err := arrange.BuildSharded(ctx, in)
	if err != nil {
		b.Fatal(err)
	}
	a, err := arrange.Stitch(ctx, sh)
	if err != nil {
		b.Fatal(err)
	}
	f := MustParse("some cell r: subset(r, Mg000000) and subset(r, Mg000001)") // blocks that only meet
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u, err := NewUniverseFromArrangementCtx(ctx, a, in)
		if err != nil {
			b.Fatal(err)
		}
		if ok, err := NewEvaluator(u).EvalCtx(ctx, f); err != nil || ok {
			b.Fatalf("subset query: %v, %v", ok, err)
		}
	}
}
