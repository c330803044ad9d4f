package arrange

import (
	"context"
	"fmt"

	"topodb/internal/geom"
	"topodb/internal/par"
	"topodb/internal/rat"
	"topodb/internal/spatial"
)

// buildFaces traces the face walks of every component, identifies each
// component's outer walk, computes the nesting forest (which face each
// component is embedded in, the paper's "embedded-in tree") by one nest
// call over every component, and merges per-component faces into global
// faces with the single unbounded face f0. The walk table
// (walkOf/walkArea/walkMin) and per-face primary-walk boxes are retained
// on the arrangement: Insert reuses them to recognize walks a delta left
// untouched, and nest stabs the boxes.
func (a *Arrangement) buildFaces(ctx context.Context) error {
	// 1. Trace walks.
	type walkInfo struct {
		start int
		comp  int
		area2 rat.R
	}
	walkOf := make([]int32, len(a.Half))
	for i := range walkOf {
		walkOf[i] = -1
	}
	var walks []walkInfo
	a.walkMin = a.walkMin[:0]
	for h := range a.Half {
		if walkOf[h] != -1 {
			continue
		}
		if h&255 == 0 && ctx.Err() != nil {
			return canceled(ctx)
		}
		wi := len(walks)
		area := rat.Zero
		minH := h
		for cur := h; ; {
			walkOf[cur] = int32(wi)
			if cur < minH {
				minH = cur
			}
			o := a.Verts[a.Half[cur].Origin].P
			d := a.Verts[a.Head(cur)].P
			area = area.Add(geom.Cross(o, d))
			cur = a.Half[cur].Next
			if cur == h {
				break
			}
		}
		walks = append(walks, walkInfo{h, a.Verts[a.Half[h].Origin].Comp, area})
		a.walkMin = append(a.walkMin, int32(minH))
	}
	a.walkOf = walkOf
	a.walkArea = make([]rat.R, len(walks))
	for wi, w := range walks {
		a.walkArea[wi] = w.area2
	}

	// 2. Outer walk per component: the unique negative-area walk.
	for _, w := range walks {
		if w.area2.Sign() < 0 {
			a.Comps[w.comp].OuterWalk = w.start
		}
	}

	// 3. Bounded faces: one per positive-area walk.
	faceOfWalk := make([]int, len(walks))
	for i := range faceOfWalk {
		faceOfWalk[i] = -1
	}
	for wi, w := range walks {
		if w.area2.Sign() <= 0 {
			continue
		}
		faceOfWalk[wi] = len(a.Faces)
		a.Faces = append(a.Faces, Face{
			Walks:   []int{w.start},
			Bounded: true,
			Comp:    w.comp,
			Area2:   w.area2,
		})
	}
	// The exterior face.
	a.Exterior = len(a.Faces)
	a.Faces = append(a.Faces, Face{Bounded: false, Comp: -1})

	// 4. Nesting, then every component's outer walk becomes an extra
	// boundary walk of its parent face.
	a.faceBox = make([]geom.Box, len(a.Faces))
	for fi := range a.Faces {
		f := &a.Faces[fi]
		if f.Bounded {
			a.faceBox[fi] = a.walkBox(f.Walks[0])
		}
	}
	all := make([]int, len(a.Comps))
	for ci := range all {
		all[ci] = ci
	}
	if err := a.nest(ctx, all); err != nil {
		return err
	}
	a.attachFaces(faceOfWalk)
	return nil
}

// attachFaces appends each component's outer walk to its parent face's
// walks, in component order, and assigns every half-edge its face:
// faceOfWalk maps each walk to its bounded face, or -1 for outer walks.
func (a *Arrangement) attachFaces(faceOfWalk []int) {
	for ci := range a.Comps {
		c := &a.Comps[ci]
		a.Faces[c.ParentFace].Walks = append(a.Faces[c.ParentFace].Walks, c.OuterWalk)
		faceOfWalk[a.walkOf[c.OuterWalk]] = c.ParentFace
	}
	for h := range a.Half {
		a.Half[h].Face = faceOfWalk[a.walkOf[h]]
	}
}

// nest sets the parent face of each listed component: the innermost
// (smallest-Area2) bounded face of another component whose primary walk
// encloses the component's root vertex, or the exterior face when none
// does. One box stab of the faces' primary-walk boxes (faceBox) by the
// root points picks the candidates — a point outside a walk's box cannot
// be enclosed by it — and the exact crossing count runs on those only.
// Build passes every component; Insert passes the components its delta
// may have re-nested.
func (a *Arrangement) nest(ctx context.Context, comps []int) error {
	pts := make([]geom.Pt, len(comps))
	for k, ci := range comps {
		pts[k] = a.Verts[a.Comps[ci].RootVertex].P
	}
	for k, stabs := range geom.StabBoxes(pts, a.faceBox) {
		if k&63 == 0 && ctx.Err() != nil {
			return canceled(ctx)
		}
		ci, best := comps[k], a.Exterior
		var bestArea rat.R
		for _, fi := range stabs {
			f := &a.Faces[fi]
			if !f.Bounded || f.Comp == ci || !a.walkContains(f.Walks[0], pts[k]) {
				continue
			}
			if best == a.Exterior || f.Area2.Less(bestArea) {
				best, bestArea = int(fi), f.Area2
			}
		}
		a.Comps[ci].ParentFace = best
	}
	return nil
}

// walkEdges returns the directed half-edges of the walk starting at h.
func (a *Arrangement) walkEdges(h int) []int {
	var out []int
	for cur := h; ; {
		out = append(out, cur)
		cur = a.Half[cur].Next
		if cur == h {
			break
		}
	}
	return out
}

// WalkHalfEdges exposes the boundary walk starting at half-edge h.
func (a *Arrangement) WalkHalfEdges(h int) []int { return a.walkEdges(h) }

// walkBox returns the bounding box of the walk starting at h.
func (a *Arrangement) walkBox(h int) geom.Box {
	box := geom.BoxOf(a.Verts[a.Half[h].Origin].P)
	for cur := a.Half[h].Next; cur != h; cur = a.Half[cur].Next {
		box = box.Union(geom.BoxOf(a.Verts[a.Half[cur].Origin].P))
	}
	return box
}

// walkContains reports whether p is enclosed by the walk starting at h,
// using an exact even–odd crossing count over the walk's edge multiset
// (bridge edges appear twice and cancel). p must not lie on the walk.
func (a *Arrangement) walkContains(h int, p geom.Pt) bool {
	inside := false
	for _, he := range a.walkEdges(h) {
		e := a.Edges[a.Half[he].Edge]
		aP, bP := a.Verts[e.V1].P, a.Verts[e.V2].P
		if aP.Y.Cmp(bP.Y) == 0 {
			continue
		}
		if aP.Y.Cmp(bP.Y) > 0 {
			aP, bP = bP, aP
		}
		if aP.Y.LessEq(p.Y) && p.Y.Less(bP.Y) && geom.Orient(aP, bP, p) > 0 {
			inside = !inside
		}
	}
	return inside
}

// leftNormal returns a left-pointing normal of v.
func leftNormal(v geom.Pt) geom.Pt { return geom.Pt{X: v.Y.Neg(), Y: v.X} }

// sampleFace computes a point strictly inside each face.
func (a *Arrangement) sampleFaces(ctx context.Context) error {
	box := geom.BoxOf(a.Verts[0].P)
	for _, v := range a.Verts[1:] {
		box = box.Union(geom.BoxOf(v.P))
	}
	a.bbox = box
	errs := make([]error, len(a.Faces))
	if err := par.ForCtx(ctx, len(a.Faces), func(fi int) {
		f := &a.Faces[fi]
		if !f.Bounded {
			f.Sample = geom.Pt{X: box.MaxX.Add(rat.One), Y: box.MaxY.Add(rat.One)}
			return
		}
		s, err := a.samplePastHalfEdge(f.Walks[0], box, f.Walks)
		if err != nil {
			errs[fi] = fmt.Errorf("arrange: face %d: %w", fi, err)
			return
		}
		f.Sample = s
	}); err != nil {
		return canceled(ctx)
	}
	return firstErr(errs)
}

// samplePastHalfEdge returns a point strictly inside the face to the left
// of half-edge h: it casts a ray from the edge midpoint along the left
// normal and stops halfway to the first thing it hits. walks lists the
// face's boundary walks; only their edges are candidate hits — the ray
// starts on the face's boundary heading into its interior, so the first
// skeleton point it reaches is on the face's own boundary. Restricting the
// cast keeps total sampling cost linear in the arrangement (each half-edge
// belongs to exactly one face) instead of faces × edges.
func (a *Arrangement) samplePastHalfEdge(h int, box geom.Box, walks []int) (geom.Pt, error) {
	he := a.Half[h]
	m := geom.Mid(a.Verts[he.Origin].P, a.Verts[a.Head(h)].P)
	n := leftNormal(a.dir(h))
	// Scale n so the ray certainly exits the bounding box.
	span := box.MaxX.Sub(box.MinX).Add(box.MaxY.Sub(box.MinY)).Add(rat.One)
	mag := rat.Max(n.X.Abs(), n.Y.Abs())
	far := m.Add(n.Scale(span.Div(mag)))
	ray := geom.Seg{A: m, B: far}
	// Nearest hit strictly after m, measured along the dominant axis.
	along := func(p geom.Pt) rat.R {
		if n.X.Abs().Cmp(n.Y.Abs()) >= 0 {
			return p.X.Sub(m.X).Div(far.X.Sub(m.X))
		}
		return p.Y.Sub(m.Y).Div(far.Y.Sub(m.Y))
	}
	tMin := rat.FromInt(2) // beyond the ray end
	found := false
	for _, w := range walks {
		for _, wh := range a.walkEdges(w) {
			ei := a.Half[wh].Edge
			if ei == he.Edge {
				continue
			}
			e := a.Edges[ei]
			seg := geom.Seg{A: a.Verts[e.V1].P, B: a.Verts[e.V2].P}
			inter := geom.Intersect(ray, seg)
			var hits []geom.Pt
			switch inter.Kind {
			case geom.PointIntersection:
				hits = []geom.Pt{inter.P}
			case geom.OverlapIntersection:
				hits = []geom.Pt{inter.P, inter.Q}
			default:
				continue
			}
			for _, p := range hits {
				t := along(p)
				if t.Sign() > 0 && t.Less(tMin) {
					tMin, found = t, true
				}
			}
		}
	}
	if !found {
		return geom.Pt{}, fmt.Errorf("sampling ray from %s escaped a bounded face", m)
	}
	return m.Add(far.Sub(m).Scale(tMin.Div(rat.Two))), nil
}

// labelCells assigns the sign-class labels of every vertex, edge and face.
//
// Labeling is the arrangement's other quadratic pass — one point location
// per (cell, region) pair. It is made output-sensitive in two steps: an
// x-sweep box-stabbing pass (geom.StabBoxes, using per-region bounding
// boxes computed once from the spatial instance) finds the candidate
// regions whose box contains each cell's location point, then the exact
// ring walk runs only on those candidates, on a bounded worker pool. A
// point outside a region's box is Exterior to it by construction, so the
// labels are identical to the exhaustive scan's — and since a label stores
// only its non-Exterior entries, the candidates bound its size as well.
// Each cell writes its entries into its own window of one shared backing
// array and errors are collected per cell, so the result (and the first
// reported error) is deterministic.
func (a *Arrangement) labelCells(ctx context.Context, in *spatial.Instance) error {
	if err := a.sampleFaces(ctx); err != nil {
		return err
	}
	nR := len(a.Names)
	rings := make([]geom.Ring, nR)
	boxes := make([]geom.Box, nR)
	for i, n := range a.Names {
		r := in.MustExt(n)
		rings[i] = r.Ring()
		boxes[i] = r.Box()
	}
	// One location point per cell: face samples, then edge midpoints, then
	// vertices.
	nF, nE := len(a.Faces), len(a.Edges)
	pts := make([]geom.Pt, 0, nF+nE+len(a.Verts))
	for fi := range a.Faces {
		pts = append(pts, a.Faces[fi].Sample)
	}
	for ei := range a.Edges {
		e := &a.Edges[ei]
		pts = append(pts, geom.Mid(a.Verts[e.V1].P, a.Verts[e.V2].P))
	}
	for vi := range a.Verts {
		pts = append(pts, a.Verts[vi].P)
	}
	cands := geom.StabBoxes(pts, boxes)
	// A cell has at most one entry per candidate: window k of the backing
	// is [off[k], off[k+1]).
	off := make([]int, len(pts)+1)
	for k, c := range cands {
		off[k+1] = off[k] + len(c)
	}
	backing := make([]labelEnt, off[len(pts)])
	used := make([]int32, len(pts))
	if err := par.ForCtx(ctx, len(pts), func(k int) {
		win := backing[off[k]:off[k]:off[k+1]]
		for _, ri := range cands[k] {
			switch geom.RingContains(rings[ri], pts[k]) {
			case geom.Inside:
				win = append(win, mkEnt(int(ri), Interior))
			case geom.OnBoundary:
				win = append(win, mkEnt(int(ri), Boundary))
			}
		}
		sortEnts(win)
		used[k] = int32(len(win))
	}); err != nil {
		return canceled(ctx)
	}
	// Compact the windows in place (entries only move left), so every
	// label slices one dense backing.
	labels := make([]Label, len(pts))
	w := 0
	for k := range pts {
		n := copy(backing[w:], backing[off[k]:off[k]+int(used[k])])
		labels[k] = Label{ents: backing[w : w+n : w+n], n: nR}
		w += n
	}
	for fi := range a.Faces {
		f := &a.Faces[fi]
		f.Label = labels[fi]
		for _, e := range f.Label.ents {
			if e.sign() == Boundary {
				return fmt.Errorf("arrange: face sample %s lies on boundary of %s", f.Sample, a.Names[e.region()])
			}
		}
	}
	for ei := range a.Edges {
		e := &a.Edges[ei]
		if err := a.checkEdgeOwners(ei, labels[nF+ei]); err != nil {
			return fmt.Errorf("arrange: %w", err)
		}
		e.Label = labels[nF+ei]
	}
	for vi := range a.Verts {
		a.Verts[vi].Label = labels[nF+nE+vi]
	}
	return nil
}

// checkEdgeOwners verifies that edge ei's Boundary entries in l are exactly
// its owner set, walking both ascending lists once, and reports the
// lowest-indexed disagreement.
func (a *Arrangement) checkEdgeOwners(ei int, l Label) error {
	m := a.Pool.members(a.Edges[ei].Owners)
	j := 0
	for _, e := range l.ents {
		if e.sign() != Boundary {
			continue
		}
		ri := e.region()
		if j < len(m) && int(m[j]) < ri {
			break // owner m[j] is not on the edge's boundary entries
		}
		if j == len(m) || int(m[j]) > ri {
			return fmt.Errorf("edge %d midpoint on boundary of non-owner %s", ei, a.Names[ri])
		}
		j++
	}
	if j < len(m) {
		return fmt.Errorf("edge %d owned by %s but midpoint not on its boundary", ei, a.Names[m[j]])
	}
	return nil
}

// sortEnts sorts a cell's few entries by region index (insertion sort:
// candidate lists are a handful long).
func sortEnts(es []labelEnt) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j] < es[j-1]; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// firstErr returns the first non-nil error in index order.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
