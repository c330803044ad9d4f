package folang

import (
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
