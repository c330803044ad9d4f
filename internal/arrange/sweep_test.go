package arrange

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// findCutsNaive is the quadratic all-pairs oracle for findCutsSweep: every
// unordered pair of segments goes through the exact intersection test,
// with no box filter or candidate enumeration to get wrong.
func findCutsNaive(segs []ownedSeg) [][]geom.Pt {
	cuts := newCutTable(segs)
	var buf []cut
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			buf = appendInter(buf[:0], i, j, geom.IntersectPrefiltered(segs[i].s, segs[j].s))
			for _, c := range buf {
				cuts[c.row] = append(cuts[c.row], c.p)
			}
		}
	}
	return cuts
}

// segsOf replicates Build's segment-collection step: every region boundary
// segment with its owner singleton, interned in a fresh pool. Both split
// paths under comparison must share the returned pool so their owner
// handles are comparable.
func segsOf(in *spatial.Instance) (*OwnerPool, []ownedSeg) {
	pool := NewOwnerPool()
	var segs []ownedSeg
	for i, n := range in.Names() {
		own := pool.With(NoOwners, i)
		for _, s := range in.MustExt(n).Boundary() {
			segs = append(segs, ownedSeg{s, own})
		}
	}
	return pool, segs
}

// normalizeCuts sorts and dedups each row's cut points, the form in which
// the two findCuts paths must agree (the raw rows are multisets whose
// order and multiplicities may differ; assemblePieces sorts and dedups).
func normalizeCuts(cuts [][]geom.Pt) [][]geom.Pt {
	out := make([][]geom.Pt, len(cuts))
	for i, pts := range cuts {
		s := append([]geom.Pt(nil), pts...)
		sort.Slice(s, func(a, b int) bool { return s[a].Cmp(s[b]) < 0 })
		var d []geom.Pt
		for _, p := range s {
			if len(d) == 0 || !d[len(d)-1].Equal(p) {
				d = append(d, p)
			}
		}
		out[i] = d
	}
	return out
}

// sweepCases is the generator matrix the equivalence properties run over:
// every workload generator plus the seeded random instances.
func sweepCases() map[string]*spatial.Instance {
	cases := map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(4),
		"overlap_chain":  workload.OverlapChain(12),
		"nested_rings":   workload.NestedRings(8),
		"county_mesh":    workload.CountyMesh(4),
		"lens_stack":     workload.LensStack(10),
		"circle_pair":    workload.CirclePair(16),
		"sparse_scatter": workload.SparseScatter(60),
		"city_blocks":    workload.CityBlocks(6),
	}
	for seed := int64(0); seed < 12; seed++ {
		cases[fmt.Sprintf("random_%02d", seed)] = randomInstance(seed, 3+int(seed%5))
	}
	return cases
}

// Property: the sweep, sequential and parallel, finds the oracle's cut set
// on every segment, for every workload generator and random instances.
func TestSweepCutsMatchNaive(t *testing.T) {
	for name, in := range sweepCases() {
		t.Run(name, func(t *testing.T) {
			_, segs := segsOf(in)
			naive := normalizeCuts(findCutsNaive(segs))
			for _, parallel := range []bool{false, true} {
				sweepCuts, err := findCutsSweep(context.Background(), segs, parallel)
				if err != nil {
					t.Fatal(err)
				}
				sweep := normalizeCuts(sweepCuts)
				for i := range segs {
					if len(naive[i]) != len(sweep[i]) {
						t.Fatalf("parallel=%v seg %d: %d naive cuts vs %d sweep cuts",
							parallel, i, len(naive[i]), len(sweep[i]))
					}
					for k := range naive[i] {
						if !naive[i][k].Equal(sweep[i][k]) {
							t.Fatalf("parallel=%v seg %d cut %d: %s vs %s",
								parallel, i, k, naive[i][k], sweep[i][k])
						}
					}
				}
			}
		})
	}
}

// Property: the assembled piece lists — the arrangement's entire input —
// are identical (same order, same geometry, same owners) whether the cuts
// come from splitSegments' sweep or the all-pairs oracle. Everything
// downstream (vertices, edges, faces, labels, canonical encodings) is a
// deterministic function of this list, so piece equality implies
// byte-identical arrangements.
func TestSweepPiecesIdentical(t *testing.T) {
	for name, in := range sweepCases() {
		t.Run(name, func(t *testing.T) {
			pool, segs := segsOf(in)
			naive := assemblePieces(pool, segs, findCutsNaive(segs))
			sweep, err := splitSegments(context.Background(), pool, segs)
			if err != nil {
				t.Fatal(err)
			}
			if len(naive) != len(sweep) {
				t.Fatalf("%d naive pieces vs %d sweep pieces", len(naive), len(sweep))
			}
			for i := range naive {
				if !naive[i].s.A.Equal(sweep[i].s.A) || !naive[i].s.B.Equal(sweep[i].s.B) ||
					naive[i].o != sweep[i].o {
					t.Fatalf("piece %d differs: %v/%v vs %v/%v",
						i, naive[i].s, naive[i].o, sweep[i].s, sweep[i].o)
				}
			}
		})
	}
}
