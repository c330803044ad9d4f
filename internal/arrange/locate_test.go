package arrange

import (
	"fmt"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/workload"
)

// faceOfPointScan is the linear-scan oracle for FaceOfPoint and Locate:
// every edge tested for incidence, every bounded face for enclosure, with
// the smallest enclosing face winning.
func faceOfPointScan(a *Arrangement, p geom.Pt) (int, error) {
	for ei := range a.Edges {
		e := a.Edges[ei]
		if (geom.Seg{A: a.Verts[e.V1].P, B: a.Verts[e.V2].P}).Contains(p) {
			return 0, fmt.Errorf("arrange: point %s lies on the skeleton", p)
		}
	}
	best, bestArea := a.Exterior, rat.R{}
	for fi := range a.Faces {
		f := &a.Faces[fi]
		if !f.Bounded {
			continue
		}
		if a.walkContains(f.Walks[0], p) {
			if best == a.Exterior || f.Area2.Less(bestArea) {
				best, bestArea = fi, f.Area2
			}
		}
	}
	return best, nil
}

// Property: the indexed point location agrees with the linear-scan
// reference on every workload generator, for queries on vertices, edge
// interiors, face samples, and a grid sweeping the whole extent.
func TestLocateMatchesScan(t *testing.T) {
	for name, in := range sweepCases() {
		t.Run(name, func(t *testing.T) {
			a, err := Build(in)
			if err != nil {
				t.Fatal(err)
			}
			// Vertices locate to themselves.
			for vi := range a.Verts {
				l := a.Locate(a.Verts[vi].P)
				if l.Kind != LocVertex || !a.Verts[l.Index].P.Equal(a.Verts[vi].P) {
					t.Fatalf("vertex %d located as %+v", vi, l)
				}
			}
			// Edge midpoints locate to their edge (or a coincident one —
			// impossible post-split, so exact index match).
			for ei := range a.Edges {
				e := &a.Edges[ei]
				m := geom.Mid(a.Verts[e.V1].P, a.Verts[e.V2].P)
				l := a.Locate(m)
				if l.Kind != LocEdge || l.Index != ei {
					t.Fatalf("edge %d midpoint located as %+v", ei, l)
				}
			}
			// Face samples locate to their face.
			for fi := range a.Faces {
				l := a.Locate(a.Faces[fi].Sample)
				if l.Kind != LocFace || l.Index != fi {
					t.Fatalf("face %d sample located as %+v", fi, l)
				}
			}
			// Grid sweep: indexed FaceOfPoint must agree with the scan,
			// including on-skeleton errors. Half-integer offsets probe
			// points off the integer lattice most generators sit on.
			box := a.bbox
			lo, _ := box.MinX.Int64()
			hi, _ := box.MaxX.Int64()
			lo2, _ := box.MinY.Int64()
			hi2, _ := box.MaxY.Int64()
			step := (hi - lo) / 12
			if step < 1 {
				step = 1
			}
			for x := lo - 1; x <= hi+1; x += step {
				for y := lo2 - 1; y <= hi2+1; y += step {
					for _, p := range []geom.Pt{
						geom.P(x, y),
						{X: rat.FromFrac(2*x+1, 2), Y: rat.FromFrac(2*y+1, 2)},
					} {
						fi, err := a.FaceOfPoint(p)
						fs, errS := faceOfPointScan(a, p)
						if (err == nil) != (errS == nil) {
							t.Fatalf("point %s: indexed err=%v scan err=%v", p, err, errS)
						}
						if err == nil && fi != fs {
							t.Fatalf("point %s: indexed face %d, scan face %d", p, fi, fs)
						}
					}
				}
			}
		})
	}
}

// The index answers the same skeleton queries the scan rejects.
func TestLocateOnSkeleton(t *testing.T) {
	a, err := Build(workload.RectGrid(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.FaceOfPoint(geom.P(0, 0)); err == nil {
		t.Fatal("vertex query must error")
	}
	if _, err := a.FaceOfPoint(geom.P(1, 0)); err == nil {
		t.Fatal("edge query must error")
	}
	if fi, err := a.FaceOfPoint(geom.P(-50, -50)); err != nil || fi != a.Exterior {
		t.Fatalf("far point: face %d err %v, want exterior %d", fi, err, a.Exterior)
	}
}

var sinkFace int

// BenchmarkFaceOfPointIndexed measures persistent-index point location on
// a scatter arrangement (the query mix stabs face interiors across the
// whole extent).
func BenchmarkFaceOfPointIndexed(b *testing.B) {
	a, err := Build(workload.SparseScatter(200))
	if err != nil {
		b.Fatal(err)
	}
	pts := locateProbes(a)
	a.ensureLocIndex() // build outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fi, err := a.FaceOfPoint(pts[i%len(pts)]); err == nil {
			sinkFace = fi
		}
	}
}

// locateProbes returns off-skeleton query points spread over the extent.
func locateProbes(a *Arrangement) []geom.Pt {
	var pts []geom.Pt
	for fi := range a.Faces {
		pts = append(pts, a.Faces[fi].Sample)
	}
	if len(pts) == 0 {
		panic(fmt.Sprintf("no probes for %d faces", len(a.Faces)))
	}
	return pts
}
