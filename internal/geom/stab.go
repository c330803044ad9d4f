package geom

import "slices"

// StabBoxes returns, for each query point, the indices of the boxes whose
// closed extent contains it — the batched form of Box.ContainsPt — in
// ascending box order. The points are sorted by x once; each box then
// binary-searches its first point at or past MinX and tests the points up
// to MaxX, so the work is proportional to the x-overlapping (point, box)
// pairs instead of len(pts) × len(boxes), and a handful of points costs
// about one pass over the boxes. Cell labeling in internal/arrange uses it
// to find the regions whose ring needs an exact point-location walk,
// component nesting the faces whose walk needs an exact crossing count,
// and Stitch the shards a shard may nest in.
//
// Every result is carved from one backing array, so a call allocates a
// fixed number of times however many points lie in a box.
func StabBoxes(pts []Pt, boxes []Box) [][]int32 {
	order := make([]int32, len(pts))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return pts[a].X.Cmp(pts[b].X) })
	// One (point, box) pair per hit, in box order; off[p+1] counts point
	// p's hits until the prefix sum turns it into window bounds.
	type hit struct{ pt, box int32 }
	hits := make([]hit, 0, len(pts))
	off := make([]int, len(pts)+1)
	for bi := range boxes {
		b := &boxes[bi]
		lo, hi := 0, len(order)
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if pts[order[m]].X.Less(b.MinX) {
				lo = m + 1
			} else {
				hi = m
			}
		}
		for _, pi := range order[lo:] {
			p := &pts[pi]
			if b.MaxX.Less(p.X) {
				break
			}
			if b.MinY.LessEq(p.Y) && p.Y.LessEq(b.MaxY) {
				hits = append(hits, hit{pi, int32(bi)})
				off[pi+1]++
			}
		}
	}
	for i := range pts {
		off[i+1] += off[i]
	}
	// Point p's window is backing[off[p]:off[p+1]]; appends fill it in box
	// order without ever reallocating.
	backing := make([]int32, len(hits))
	res := make([][]int32, len(pts))
	for i := range res {
		res[i] = backing[off[i]:off[i]:off[i+1]]
	}
	for _, h := range hits {
		res[h.pt] = append(res[h.pt], h.box)
	}
	return res
}
