package arrange

import (
	"fmt"
	"math/rand"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/region"
	"topodb/internal/spatial"
)

// randomInstance builds a deterministic pseudo-random instance of n
// rectangles (possibly overlapping, touching, nesting).
func randomInstance(seed int64, n int) *spatial.Instance {
	rng := rand.New(rand.NewSource(seed))
	in := spatial.New()
	for i := 0; i < n; i++ {
		x := int64(rng.Intn(20))
		y := int64(rng.Intn(20))
		w := int64(rng.Intn(10) + 1)
		h := int64(rng.Intn(10) + 1)
		in.MustAdd(fmt.Sprintf("R%02d", i), region.MustRect(x, y, x+w, y+h))
	}
	return in
}

// Property: on random instances the arrangement satisfies Euler's formula,
// half-edge involutions, label/sample agreement, and exact cell coverage
// (each region's area equals the sum of its interior face areas).
func TestQuickArrangementInvariants(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		n := 2 + int(seed%4)
		in := randomInstance(seed, n)
		a, err := Build(in)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		v, e, f := a.Stats()
		c := len(a.Comps)
		if v-e+f != 1+c {
			t.Fatalf("seed %d: Euler %d-%d+%d != 1+%d", seed, v, e, f, c)
		}
		for h := range a.Half {
			if a.Half[a.Half[h].Twin].Twin != h {
				t.Fatalf("seed %d: twin broken", seed)
			}
			if a.Half[a.Half[h].Next].Origin != a.Head(h) {
				t.Fatalf("seed %d: next broken", seed)
			}
		}
		// Face sample labels agree with direct point location.
		for fi, fc := range a.Faces {
			for ri, name := range a.Names {
				want := Exterior
				if in.MustExt(name).Locate(fc.Sample) == geom.Inside {
					want = Interior
				}
				if fc.Label.At(ri) != want {
					t.Fatalf("seed %d: face %d label mismatch for %s", seed, fi, name)
				}
			}
		}
		// Area conservation: for each region, the sum of 2*areas of faces
		// labeled interior equals the region's 2*area. (Face areas of
		// bounded faces enclose nested components; subtract children.)
		for ri, name := range a.Names {
			sum := areaOfRegionFaces(a, ri)
			want := in.MustExt(name).Ring().SignedArea2()
			if !sum.Equal(want) {
				t.Fatalf("seed %d: region %s area %s != faces sum %s", seed, name, want, sum)
			}
		}
	}
}

// areaOfRegionFaces sums the enclosed areas of the faces labeled interior
// for region ri, subtracting the enclosure of directly nested components
// (whose own faces are counted separately).
func areaOfRegionFaces(a *Arrangement, ri int) (sum rat.R) {
	sum = rat.Zero
	for fi := range a.Faces {
		f := &a.Faces[fi]
		if !f.Bounded || f.Label.At(ri) != Interior {
			continue
		}
		area := f.Area2
		// Subtract the outer-walk areas of components nested in this face
		// (their own bounded faces contribute their labels themselves).
		for ci := range a.Comps {
			if a.Comps[ci].ParentFace == fi {
				// The component's outer walk has negative area equal to
				// minus its enclosure.
				area = area.Add(walkArea(a, a.Comps[ci].OuterWalk))
			}
		}
		sum = sum.Add(area)
	}
	return sum
}

func walkArea(a *Arrangement, h int) (area rat.R) {
	area = rat.Zero
	for _, he := range a.WalkHalfEdges(h) {
		o := a.Verts[a.Half[he].Origin].P
		d := a.Verts[a.Head(he)].P
		area = area.Add(geom.Cross(o, d))
	}
	return area
}
