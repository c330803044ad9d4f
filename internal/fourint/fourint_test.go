package fourint

import (
	"runtime"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/geom"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// canonicalConfigs returns one instance {A, B} per relation — the paper's
// Fig 2 gallery.
func canonicalConfigs() map[Relation]*spatial.Instance {
	mk := func(a, b region.Region) *spatial.Instance {
		return spatial.New().MustAdd("A", a).MustAdd("B", b)
	}
	// covers: B ⊂ A sharing part of the boundary.
	coversB := region.MustRect(0, 0, 4, 4) // shares A's left/bottom corner edges
	return map[Relation]*spatial.Instance{
		Disjoint:  mk(region.MustRect(0, 0, 4, 4), region.MustRect(6, 0, 10, 4)),
		Meet:      mk(region.MustRect(0, 0, 4, 4), region.MustRect(4, 0, 8, 4)),
		Equal:     mk(region.MustRect(0, 0, 4, 4), region.MustRect(0, 0, 4, 4)),
		Overlap:   mk(region.MustRect(0, 0, 4, 4), region.MustRect(2, 2, 6, 6)),
		Inside:    mk(region.MustRect(1, 1, 3, 3), region.MustRect(0, 0, 8, 8)),
		Contains:  mk(region.MustRect(0, 0, 8, 8), region.MustRect(1, 1, 3, 3)),
		CoveredBy: mk(coversB, region.MustRect(0, 0, 8, 8)),
		Covers:    mk(region.MustRect(0, 0, 8, 8), coversB),
	}
}

func TestFig2CanonicalConfigs(t *testing.T) {
	for want, in := range canonicalConfigs() {
		got, err := Relate(in, "A", "B")
		if err != nil {
			t.Fatalf("%v: %v", want, err)
		}
		if got != want {
			t.Errorf("relation = %v, want %v", got, want)
		}
		// Inverse consistency.
		inv, err := Relate(in, "B", "A")
		if err != nil {
			t.Fatal(err)
		}
		if inv != want.Inverse() {
			t.Errorf("inverse of %v = %v, want %v", want, inv, want.Inverse())
		}
	}
}

// A region relates to itself as equal: MatrixOf reads both signs from the
// same label entry.
func TestMatrixOfSelfIsEqual(t *testing.T) {
	for _, in := range canonicalConfigs() {
		a, err := arrange.Build(in)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Names {
			if got, err := Classify(MatrixOf(a, i, i)); err != nil || got != Equal {
				t.Fatalf("%s vs itself = %v (%v), want equal", a.Names[i], got, err)
			}
		}
	}
}

func TestMeetAtCornerOnly(t *testing.T) {
	in := spatial.New().
		MustAdd("A", region.MustPoly(geom.Ring{geom.P(0, 0), geom.P(3, 1), geom.P(4, 4), geom.P(1, 3)})).
		MustAdd("B", region.MustPoly(geom.Ring{geom.P(0, 0), geom.P(1, -3), geom.P(4, -4), geom.P(3, -1)}))
	got, err := Relate(in, "A", "B")
	if err != nil {
		t.Fatal(err)
	}
	if got != Meet {
		t.Fatalf("corner touch = %v, want meet", got)
	}
}

func TestClassifyRejectsUnrealizable(t *testing.T) {
	if _, err := Classify(Matrix{II: false, IB: true}); err == nil {
		t.Fatal("unrealizable matrix accepted")
	}
}

// Fig 1a/1b and Fig 1c/1d are 4-intersection equivalent (the paper's
// motivating observation: 4-intersection does not determine topology).
func TestPaperEquivalences(t *testing.T) {
	eq, err := EquivalentInstances(spatial.Fig1a(), spatial.Fig1b())
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("Fig1a and Fig1b should be 4-intersection equivalent")
	}
	eq, err = EquivalentInstances(spatial.Fig1c(), spatial.Fig1d())
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("Fig1c and Fig1d should be 4-intersection equivalent")
	}
	// But nested vs disjoint differ.
	n, d := spatial.NestedPair()
	eq, err = EquivalentInstances(n, d)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("nested and disjoint are not 4-intersection equivalent")
	}
}

func TestAllPairsMatchesPairwise(t *testing.T) {
	in := spatial.Fig1b()
	all, err := AllPairs(in)
	if err != nil {
		t.Fatal(err)
	}
	names := in.Names()
	for i := range names {
		for j := range names {
			if i == j {
				continue
			}
			want, err := Relate(in, names[i], names[j])
			if err != nil {
				t.Fatal(err)
			}
			if got := all[[2]string{names[i], names[j]}]; got != want {
				t.Errorf("%s-%s: all-pairs %v, pairwise %v", names[i], names[j], got, want)
			}
		}
	}
}

// TestAllPairsLargeMatchesPairwise exercises the worker-pool path on an
// instance with enough pairs to spread across several workers, checking the
// parallel classification agrees with pairwise Relate and that repeated
// runs produce identical maps.
func TestAllPairsLargeMatchesPairwise(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // engage the worker pool even on 1 CPU
	in := workload.OverlapChain(12)
	all, err := AllPairs(in)
	if err != nil {
		t.Fatal(err)
	}
	names := in.Names()
	if want := len(names) * (len(names) - 1); len(all) != want {
		t.Fatalf("all-pairs has %d entries, want %d", len(all), want)
	}
	for i := range names {
		for j := range names {
			if i == j {
				continue
			}
			want, err := Relate(in, names[i], names[j])
			if err != nil {
				t.Fatal(err)
			}
			if got := all[[2]string{names[i], names[j]}]; got != want {
				t.Errorf("%s-%s: all-pairs %v, pairwise %v", names[i], names[j], got, want)
			}
		}
	}
	again, err := AllPairs(in)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range all {
		if again[k] != v {
			t.Fatalf("%v: first run %v, second run %v", k, v, again[k])
		}
	}
}

func TestMatrixString(t *testing.T) {
	m := Matrix{II: true, BB: true}
	if m.String() != "[¬∅ ∅; ∅ ¬∅]" {
		t.Fatalf("got %s", m)
	}
}

func BenchmarkRelateOverlap(b *testing.B) {
	in := canonicalConfigs()[Overlap]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Relate(in, "A", "B"); err != nil {
			b.Fatal(err)
		}
	}
}
