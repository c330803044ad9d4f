package arrange

import (
	"context"
	"sort"

	"topodb/internal/geom"
	"topodb/internal/par"
)

// parallelPairMin is the segment count below which the pairwise
// intersection loop stays sequential: for small inputs the goroutine
// hand-off costs more than the rational-arithmetic loop itself.
const parallelPairMin = 48

// candidateBatch is the ForBatch claim size for the candidate-pair
// intersection phase: one candidate test is a few dozen nanoseconds, far
// cheaper than an uncontended atomic RMW, so workers claim work in chunks.
const candidateBatch = 64

// splitSegments cuts every input segment at each point where it meets
// another segment (crossings, T-junctions, touching endpoints, and the
// endpoints of collinear overlaps), then deduplicates the resulting pieces,
// merging owner sets of coincident pieces. The output is a set of
// interior-disjoint segments meeting only at shared endpoints — the 1-
// skeleton of the arrangement.
//
// The pairwise intersection pass — the arrangement's asymptotic hot spot —
// is output-sensitive: an x-interval plane sweep (findCutsSweep) restricts
// the exact intersection tests to pairs whose bounding boxes overlap, so
// sparse workloads cost O(n log n + k) pair tests rather than O(n²).
// The piece list is deterministic: cut points are sorted per segment
// before pieces are emitted, so discovery order never leaks into the
// output and canonical encodings stay byte-stable across worker counts.
func splitSegments(ctx context.Context, pool *OwnerPool, segs []ownedSeg) ([]ownedSeg, error) {
	cuts, err := findCutsSweep(ctx, segs, len(segs) >= parallelPairMin)
	if err != nil {
		return nil, err
	}
	return assemblePieces(pool, segs, cuts), nil
}

// newCutTable seeds the per-segment cut lists with the segment endpoints.
func newCutTable(segs []ownedSeg) [][]geom.Pt {
	cuts := make([][]geom.Pt, len(segs))
	for i := range segs {
		cuts[i] = append(cuts[i], segs[i].s.A, segs[i].s.B)
	}
	return cuts
}

// cut is one discovered cut point on segment row.
type cut struct {
	row int
	p   geom.Pt
}

// appendInter records the cut points of an intersection between segments i
// and j into buf.
func appendInter(buf []cut, i, j int, inter geom.Intersection) []cut {
	switch inter.Kind {
	case geom.PointIntersection:
		buf = append(buf, cut{i, inter.P}, cut{j, inter.P})
	case geom.OverlapIntersection:
		buf = append(buf,
			cut{i, inter.P}, cut{i, inter.Q},
			cut{j, inter.P}, cut{j, inter.Q})
	}
	return buf
}

// findCutsSweep is the sub-quadratic path: a plane sweep over x-sorted
// segment bounding boxes enumerates exactly the pairs whose boxes overlap
// (phase 1, cheap interval comparisons only), then the exact intersection
// test runs on that candidate list (phase 2, parallel for large lists).
func findCutsSweep(ctx context.Context, segs []ownedSeg, parallel bool) ([][]geom.Pt, error) {
	n := len(segs)
	cuts := newCutTable(segs)

	boxes := make([]geom.Box, n)
	for i := range segs {
		boxes[i] = geom.SegBox(segs[i].s)
	}

	// Phase 1: sweep segments in order of box MinX, keeping an active list
	// of earlier segments whose x-interval may still reach the sweep line.
	// A pair becomes a candidate iff both its x- and y-intervals overlap —
	// exactly the pairs geom.Intersect's own box filter would pass.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if c := boxes[order[a]].MinX.Cmp(boxes[order[b]].MinX); c != 0 {
			return c < 0
		}
		return order[a] < order[b]
	})
	type pair struct{ i, j int32 }
	var cands []pair
	active := make([]int, 0, 64)
	for step, i := range order {
		if step&255 == 0 && ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		bi := &boxes[i]
		kept := active[:0]
		for _, j := range active {
			bj := &boxes[j]
			if bj.MaxX.Cmp(bi.MinX) < 0 {
				continue // box j ends left of the sweep line: retire it
			}
			kept = append(kept, j)
			if bj.MinY.Cmp(bi.MaxY) <= 0 && bi.MinY.Cmp(bj.MaxY) <= 0 {
				cands = append(cands, pair{int32(j), int32(i)})
			}
		}
		active = append(kept, i)
	}

	// Phase 2: exact intersection on the candidates.
	shards := 1
	if parallel {
		shards = par.Shards(len(cands))
	}
	if shards == 1 {
		var buf []cut
		for k, c := range cands {
			if k&1023 == 0 && ctx.Err() != nil {
				return nil, canceled(ctx)
			}
			buf = appendInter(buf[:0], int(c.i), int(c.j),
				geom.IntersectPrefiltered(segs[c.i].s, segs[c.j].s))
			for _, cc := range buf {
				cuts[cc.row] = append(cuts[cc.row], cc.p)
			}
		}
		return cuts, nil
	}
	locals := make([][]cut, shards)
	par.ForBatch(shards, len(cands), candidateBatch, func(w, k int) {
		if k%candidateBatch == 0 && ctx.Err() != nil {
			return // claimed batch skipped; the pass is discarded below
		}
		c := cands[k]
		locals[w] = appendInter(locals[w], int(c.i), int(c.j),
			geom.IntersectPrefiltered(segs[c.i].s, segs[c.j].s))
	})
	if ctx.Err() != nil {
		return nil, canceled(ctx)
	}
	mergeCuts(cuts, locals)
	return cuts, nil
}

// mergeCuts folds per-shard cut buffers into the per-segment table.
func mergeCuts(cuts [][]geom.Pt, locals [][]cut) {
	for _, buf := range locals {
		for _, c := range buf {
			cuts[c.row] = append(cuts[c.row], c.p)
		}
	}
}

// assemblePieces sorts each segment's cut points, emits the nondegenerate
// pieces in segment order, and merges owner sets of coincident pieces
// (unions interned into pool). The pass is sequential and the piece order
// deterministic, so the pool's handle assignment is deterministic too.
func assemblePieces(pool *OwnerPool, segs []ownedSeg, cuts [][]geom.Pt) []ownedSeg {
	type pieceKey struct{ a, b ptKey }
	merged := make(map[pieceKey]int)
	var out []ownedSeg
	for i := range segs {
		pts := cuts[i]
		// Points on a common line are totally ordered lexicographically.
		// Cut lists are short (a handful of crossings per segment), so an
		// insertion sort avoids sort.Slice's reflection setup; equal
		// points collapse in the dedup below, so tie order is immaterial.
		for k := 1; k < len(pts); k++ {
			p := pts[k]
			j := k - 1
			for j >= 0 && p.Cmp(pts[j]) < 0 {
				pts[j+1] = pts[j]
				j--
			}
			pts[j+1] = p
		}
		for k := 0; k+1 < len(pts); k++ {
			a, b := pts[k], pts[k+1]
			if a.Equal(b) {
				continue
			}
			key := pieceKey{keyOfPt(a), keyOfPt(b)}
			if idx, ok := merged[key]; ok {
				out[idx].o = pool.Union(out[idx].o, segs[i].o)
				continue
			}
			merged[key] = len(out)
			out = append(out, ownedSeg{geom.Seg{A: a, B: b}, segs[i].o})
		}
	}
	return out
}
