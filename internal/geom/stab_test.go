package geom

import (
	"math/rand"
	"slices"
	"testing"
)

// StabBoxes must report exactly the boxes a brute-force Box.ContainsPt scan
// finds, ascending per point, including zero-width and zero-height boxes
// and points on box edges and corners.
func TestStabBoxesMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coord := func() int64 { return int64(rng.Intn(12)) }
	for trial := 0; trial < 300; trial++ {
		boxes := make([]Box, rng.Intn(30))
		for i := range boxes {
			x1, y1 := coord(), coord()
			x2, y2 := x1, y1 // zero width and height unless grown below
			if rng.Intn(4) != 0 {
				x2 += int64(rng.Intn(5))
			}
			if rng.Intn(4) != 0 {
				y2 += int64(rng.Intn(5))
			}
			boxes[i] = BoxOf(P(x1, y1), P(x2, y2))
		}
		var pts []Pt
		for i := rng.Intn(40); i > 0; i-- {
			pts = append(pts, PFrac(int64(rng.Intn(30)), 2, int64(rng.Intn(30)), 2))
		}
		for _, b := range boxes {
			if rng.Intn(2) == 0 {
				// A corner and the midpoint of the bottom edge.
				pts = append(pts, Pt{b.MaxX, b.MinY}, Pt{Mid(Pt{b.MinX, b.MinY}, Pt{b.MaxX, b.MinY}).X, b.MinY})
			}
		}
		got := StabBoxes(pts, boxes)
		if len(got) != len(pts) {
			t.Fatalf("trial %d: %d results for %d points", trial, len(got), len(pts))
		}
		for k, p := range pts {
			var want []int32
			for bi, b := range boxes {
				if b.ContainsPt(p) {
					want = append(want, int32(bi))
				}
			}
			if !slices.Equal(got[k], want) {
				t.Fatalf("trial %d: point %s stabs %v, scan finds %v", trial, p, got[k], want)
			}
		}
	}
}

// StabBoxes allocates a fixed number of times, however many points it is
// given: every result is a window of one backing array.
func TestStabBoxesAllocsFlat(t *testing.T) {
	shape := func(n int) ([]Pt, []Box) {
		pts := make([]Pt, n)
		boxes := make([]Box, n)
		for i := range pts {
			x := int64(2 * (n - i)) // points arrive in descending x
			boxes[i] = BoxOf(P(x, 0), P(x+1, 1))
			pts[i] = PFrac(2*x+1, 2, 1, 2)
		}
		return pts, boxes
	}
	allocs := func(n int) float64 {
		pts, boxes := shape(n)
		return testing.AllocsPerRun(20, func() { StabBoxes(pts, boxes) })
	}
	small, large := allocs(4), allocs(2000)
	if large != small || large > 6 {
		t.Fatalf("StabBoxes allocates %v times for 4 points, %v for 2000; want the same fixed count ≤ 6", small, large)
	}
}
