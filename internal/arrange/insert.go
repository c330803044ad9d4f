package arrange

import (
	"context"
	"fmt"
	"sort"

	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/spatial"
)

// Insert derives the arrangement of in — which must extend the parent
// arrangement's instance by exactly the named added regions, leaving every
// pre-existing region's extent untouched — from parent, doing heavy
// (exact-arithmetic) work proportional to the delta rather than the
// instance:
//
//   - the intersection sweep runs only over the new regions' segments plus
//     the parent edges whose boxes meet the delta's bounding box, and only
//     pairs involving a new segment are tested exactly;
//   - intersected parent edges are re-split in place (the first sub-piece
//     reuses the edge's slot and the half-edge originating at each old
//     endpoint, so untouched vertices keep their rotation order verbatim);
//   - components come from the cold build's component pass, one linear
//     union-find over the edges; a component holding no new or touched
//     vertex is its parent component unchanged;
//   - face walks are retraced by cheap pointer chasing, and walks without a
//     touched half-edge inherit their parent walk's area, box, face sample
//     and face label wholesale — only faces stabbed or cut by the delta pay
//     exact ray casts and point locations;
//   - only the components the delta may have re-nested go through the cold
//     build's nesting pass (nest); every other one keeps its parent face;
//   - cell labels are extended in place: every cell keeps its old-region
//     signs (copied from the parent cell it came from, found through the
//     parent's persistent point-location index when provenance alone does
//     not determine it) and gains signs only for the added regions.
//
// The result is a fresh Arrangement — parent is never mutated and stays
// valid (snapshots of older generations keep reading it). Cell indices may
// differ from a cold Build of in, but the complex is geometrically
// identical cell for cell, so every canonical encoding derived from it is
// byte-identical to the cold build's (property-tested across the workload
// generators).
//
// Insert fails (and the caller should fall back to a cold build) when the
// delta is not a pure extension: an added name already present in parent,
// a pre-existing name missing from in, or region counts beyond the
// configurable region budget (SetRegionBudget).
func Insert(ctx context.Context, parent *Arrangement, in *spatial.Instance, added ...string) (*Arrangement, error) {
	if parent != nil && len(parent.scaffold) > 0 {
		return nil, fmt.Errorf("arrange: Insert: parent carries %d scaffold segments; use InsertWithScaffoldCtx", len(parent.scaffold))
	}
	return insertCore(ctx, parent, in, added)
}

// InsertWithScaffoldCtx derives the scaffolded arrangement of in from a
// parent built over the same scaffold (BuildWithScaffoldCtx or a previous
// InsertWithScaffoldCtx). The scaffold segments are fixed geometry: they
// are already ordinary ownerless edges of the parent complex, so the delta
// sweep re-cuts only the cells the added regions' segments touch, exactly
// like the unscaffolded Insert, and records Provenance the same way.
//
// scaffold must be the caller's freshly computed scaffold for in; it is
// validated segment-for-segment against the scaffold the parent was built
// over. A mismatch — for refinement grids (folang.GridScaffold) this means
// the delta grew the instance bounding box that anchors every line — makes
// delta-local re-cutting unsound, and the call fails with an error
// wrapping ErrScaffoldMoved so the caller can rebuild cold.
func InsertWithScaffoldCtx(ctx context.Context, parent *Arrangement, in *spatial.Instance, scaffold []geom.Seg, added ...string) (*Arrangement, error) {
	if parent == nil {
		return nil, fmt.Errorf("arrange: InsertWithScaffoldCtx needs a parent")
	}
	if len(scaffold) != len(parent.scaffold) {
		return nil, fmt.Errorf("arrange: %w: %d scaffold segments vs %d on the parent",
			ErrScaffoldMoved, len(scaffold), len(parent.scaffold))
	}
	for i, s := range scaffold {
		p := parent.scaffold[i]
		if !s.A.Equal(p.A) || !s.B.Equal(p.B) {
			return nil, fmt.Errorf("arrange: %w: scaffold segment %d is %s-%s, parent has %s-%s",
				ErrScaffoldMoved, i, s.A, s.B, p.A, p.B)
		}
	}
	return insertCore(ctx, parent, in, added)
}

// insertCore is the shared body of Insert and InsertWithScaffoldCtx:
// validate the pure-extension contract, then run the delta pipeline.
func insertCore(ctx context.Context, parent *Arrangement, in *spatial.Instance, added []string) (*Arrangement, error) {
	if parent == nil || len(added) == 0 {
		return nil, fmt.Errorf("arrange: Insert needs a parent and at least one added region")
	}
	if parent.walkOf == nil || parent.faceBox == nil {
		return nil, fmt.Errorf("arrange: Insert parent lacks construction caches (a multi-shard stitch is read-only)")
	}
	// The arrangement owns its names: Instance.Names returns the live
	// slice, which later in-place Adds to in would shift underneath it.
	names := append([]string(nil), in.Names()...)
	if len(names) != len(parent.Names)+len(added) {
		return nil, fmt.Errorf("arrange: Insert delta mismatch: %d = %d parent + %d added regions",
			len(names), len(parent.Names), len(added))
	}
	if err := checkBudget(len(names)); err != nil {
		return nil, err
	}
	old, err := lineage(parent.Names, names, added)
	if err != nil {
		return nil, err
	}

	ins := &inserter{parent: parent, in: in}
	return ins.run(ctx, names, old)
}

// inserter carries the state of one incremental derivation.
type inserter struct {
	parent *Arrangement
	in     *spatial.Instance
	b      *Arrangement

	remap    []int // parent region index -> new region index (ascending)
	identity bool  // remap is the identity (added names sort last)
	addedIdx []int // new region indices of the added regions, ascending

	oldVerts, oldEdges, oldHalf int // parent array lengths

	newSegs  []ownedSeg // the added regions' boundary segments
	deltaBox geom.Box   // union box of newSegs

	vmap        map[string]int   // point key -> vertex index (delta area only)
	edgeAt      map[[2]int32]int // (vmin,vmax) -> edge index (delta area only)
	touched     []bool           // vertex gained/lost incident halves
	edgeProv    []int32          // edge -> parent edge it is a piece of, or -1
	dirtyH      []bool           // half-edge whose walk may have changed
	walkDirty   []bool           // walk contains a dirty half-edge
	cleanFaceOf []int            // new face -> parent face it equals, or -1
	compParent  []int32          // new comp -> untouched parent comp, or -1
}

// run derives the arrangement of names, where old maps each new region
// index to its parent index, or to -1 for an added region (lineage).
func (s *inserter) run(ctx context.Context, names []string, old []int) (*Arrangement, error) {
	parent, in := s.parent, s.in
	s.b = &Arrangement{Names: names}
	b := s.b
	// The scaffold is fixed geometry across a derivation chain (validated
	// by InsertWithScaffoldCtx), so the child records the parent's slice.
	b.scaffold = parent.scaffold
	s.remap = make([]int, len(parent.Names))
	s.addedIdx = make([]int, 0, len(names)-len(parent.Names))
	s.identity = true
	for i, pj := range old {
		if pj < 0 {
			s.addedIdx = append(s.addedIdx, i)
			continue
		}
		s.remap[pj] = i
		s.identity = s.identity && pj == i
	}

	// The derived arrangement gets its own owner pool, extended coherently
	// from the parent's, and every parent handle keeps its number: with the
	// identity remap (added names sort last) the pool is a clone; with a
	// shifted index space it holds each parent set at its remapped indices,
	// appended in handle order (the remap is injective, so the sets stay
	// distinct and nothing needs re-interning). Either way copied edges keep
	// their Owners verbatim, and parent.Pool is never written: snapshots of
	// the parent generation keep reading it concurrently.
	if s.identity {
		b.Pool = parent.Pool.Clone()
	} else {
		b.Pool = NewOwnerPool()
		b.Pool.appendMapped(parent.Pool, s.remap, make([]int32, 0, parent.Pool.memberCount()))
	}

	// Collect the delta's segments (in ascending new-index order, like the
	// cold build's collection pass).
	for _, ri := range s.addedIdx {
		r := in.MustExt(names[ri])
		own := b.Pool.With(NoOwners, ri)
		for _, seg := range r.Boundary() {
			if seg.IsDegenerate() {
				return nil, fmt.Errorf("arrange: degenerate boundary segment at %s", seg.A)
			}
			s.newSegs = append(s.newSegs, ownedSeg{seg, own})
		}
	}
	s.deltaBox = geom.SegBox(s.newSegs[0].s)
	for _, sg := range s.newSegs[1:] {
		s.deltaBox = s.deltaBox.Union(geom.SegBox(sg.s))
	}

	// Copy the parent complex. Slices inside vertices (rotation orders)
	// are shared copy-on-write: only touched vertices get fresh ones.
	s.oldVerts, s.oldEdges, s.oldHalf = len(parent.Verts), len(parent.Edges), len(parent.Half)
	b.Verts = append(make([]Vertex, 0, s.oldVerts+8), parent.Verts...)
	b.Edges = append(make([]Edge, 0, s.oldEdges+16), parent.Edges...)
	b.Half = append(make([]HalfEdge, 0, s.oldHalf+32), parent.Half...)
	s.touched = make([]bool, s.oldVerts)
	s.edgeProv = make([]int32, s.oldEdges)
	for i := range s.edgeProv {
		s.edgeProv[i] = int32(i)
	}

	// Index the delta neighborhood: vertices inside the delta box (every
	// endpoint of every new piece lands there) and their incident edges
	// (the only old edges a new piece can coincide with).
	s.vmap = make(map[string]int)
	s.edgeAt = make(map[[2]int32]int)
	for vi := 0; vi < s.oldVerts; vi++ {
		if !s.deltaBox.ContainsPt(b.Verts[vi].P) {
			continue
		}
		s.vmap[b.Verts[vi].P.Key()] = vi
		for _, h := range b.Verts[vi].Out {
			ei := b.Half[h].Edge
			e := &b.Edges[ei]
			s.edgeAt[ekey(e.V1, e.V2)] = ei
		}
	}

	// Delta-restricted cut discovery, then the surgery itself.
	oldCuts, newCuts, err := s.findDeltaCuts(ctx)
	if err != nil {
		return nil, err
	}
	gained := make(map[int][]int) // vertex -> half-edges gained
	s.cutOldEdges(oldCuts, gained)
	s.insertNewPieces(newCuts, gained)

	if ctx.Err() != nil {
		return nil, canceled(ctx)
	}

	// Rotation: only touched vertices re-sort; everyone's Next pointers
	// are rebuilt (cheap integer writes), and the halves whose walk could
	// have moved are marked dirty.
	s.rebuildRotation(gained)

	// Components, walks, faces, nesting, samples, labels.
	s.rebuildComponents()
	if err := s.rebuildFaces(ctx); err != nil {
		return nil, err
	}
	if err := s.rebuildLabels(ctx); err != nil {
		return nil, err
	}
	s.recordProvenance()
	return b, nil
}

// ekey is the canonical map key of an edge's endpoint pair.
func ekey(v1, v2 int) [2]int32 {
	if v1 > v2 {
		v1, v2 = v2, v1
	}
	return [2]int32{int32(v1), int32(v2)}
}

// findDeltaCuts sweeps the new segments plus the parent edges whose boxes
// meet the delta box, testing exactly the candidate pairs that involve at
// least one new segment (parent edges are already mutually interior-
// disjoint). It returns the cut points discovered on parent edges (by edge
// index) and on new segments (by segment index, seeded with endpoints).
func (s *inserter) findDeltaCuts(ctx context.Context) (map[int][]geom.Pt, [][]geom.Pt, error) {
	b := s.b
	type partic struct {
		idx   int32 // edge index or new-segment index
		isNew bool
		box   geom.Box
		seg   geom.Seg
	}
	var parts []partic
	for ei := 0; ei < s.oldEdges; ei++ {
		e := &b.Edges[ei]
		p1, p2 := b.Verts[e.V1].P, b.Verts[e.V2].P
		// Cheap reject against the delta box before materializing the
		// segment's own box: both endpoints on one outside of it means the
		// edge cannot meet any new segment.
		if (p1.X.Less(s.deltaBox.MinX) && p2.X.Less(s.deltaBox.MinX)) ||
			(s.deltaBox.MaxX.Less(p1.X) && s.deltaBox.MaxX.Less(p2.X)) ||
			(p1.Y.Less(s.deltaBox.MinY) && p2.Y.Less(s.deltaBox.MinY)) ||
			(s.deltaBox.MaxY.Less(p1.Y) && s.deltaBox.MaxY.Less(p2.Y)) {
			continue
		}
		sg := geom.Seg{A: p1, B: p2}
		parts = append(parts, partic{int32(ei), false, geom.SegBox(sg), sg})
	}
	for si, sg := range s.newSegs {
		parts = append(parts, partic{int32(si), true, geom.SegBox(sg.s), sg.s})
	}
	sort.Slice(parts, func(a, c int) bool {
		if cmp := parts[a].box.MinX.Cmp(parts[c].box.MinX); cmp != 0 {
			return cmp < 0
		}
		if parts[a].isNew != parts[c].isNew {
			return !parts[a].isNew
		}
		return parts[a].idx < parts[c].idx
	})

	oldCuts := make(map[int][]geom.Pt)
	newCuts := make([][]geom.Pt, len(s.newSegs))
	for si := range s.newSegs {
		newCuts[si] = append(newCuts[si], s.newSegs[si].s.A, s.newSegs[si].s.B)
	}
	record := func(p *partic, pt geom.Pt) {
		if p.isNew {
			newCuts[p.idx] = append(newCuts[p.idx], pt)
		} else {
			oldCuts[int(p.idx)] = append(oldCuts[int(p.idx)], pt)
		}
	}
	active := make([]int, 0, 64)
	for step := range parts {
		if step&255 == 0 && ctx.Err() != nil {
			return nil, nil, canceled(ctx)
		}
		pi := &parts[step]
		kept := active[:0]
		for _, j := range active {
			pj := &parts[j]
			if pj.box.MaxX.Cmp(pi.box.MinX) < 0 {
				continue // retired by the sweep line
			}
			kept = append(kept, j)
			if !pi.isNew && !pj.isNew {
				continue // parent edges never cut each other
			}
			if pj.box.MinY.Cmp(pi.box.MaxY) > 0 || pi.box.MinY.Cmp(pj.box.MaxY) > 0 {
				continue
			}
			inter := geom.IntersectPrefiltered(pi.seg, pj.seg)
			switch inter.Kind {
			case geom.PointIntersection:
				record(pi, inter.P)
				record(pj, inter.P)
			case geom.OverlapIntersection:
				record(pi, inter.P)
				record(pi, inter.Q)
				record(pj, inter.P)
				record(pj, inter.Q)
			}
		}
		active = append(kept, step)
	}
	return oldCuts, newCuts, nil
}

// getV returns the vertex at p, creating it when the delta introduces it.
// Every point passed here lies inside the delta box, so the pre-seeded
// vmap covers all coincidences with parent vertices.
func (s *inserter) getV(p geom.Pt, gained map[int][]int) int {
	k := p.Key()
	if vi, ok := s.vmap[k]; ok {
		return vi
	}
	vi := len(s.b.Verts)
	s.vmap[k] = vi
	s.b.Verts = append(s.b.Verts, Vertex{P: p})
	s.touched = append(s.touched, true)
	gained[vi] = nil
	return vi
}

// sortChain orders a collinear cut-point multiset along the segment
// heading from 'from' to 'to', dropping duplicates. Collinear points are
// totally ordered lexicographically, so ascending order matches one of the
// two directions; the result is reversed when that direction is to→from.
func sortChain(pts []geom.Pt, from, to geom.Pt) []geom.Pt {
	sort.Slice(pts, func(a, b int) bool { return pts[a].Cmp(pts[b]) < 0 })
	dedup := pts[:0]
	for _, p := range pts {
		if len(dedup) == 0 || !dedup[len(dedup)-1].Equal(p) {
			dedup = append(dedup, p)
		}
	}
	if from.Cmp(to) > 0 {
		for i, j := 0, len(dedup)-1; i < j; i, j = i+1, j-1 {
			dedup[i], dedup[j] = dedup[j], dedup[i]
		}
	}
	return dedup
}

// cutOldEdges re-splits every intersected parent edge in place: the first
// sub-piece keeps the edge slot and the half-edge originating at V1, the
// last keeps the half-edge originating at V2 (so both old endpoints keep
// their rotation entries and ordering verbatim), and interior sub-pieces
// are appended. Interior cut points become fresh touched vertices.
func (s *inserter) cutOldEdges(oldCuts map[int][]geom.Pt, gained map[int][]int) {
	b := s.b
	eis := make([]int, 0, len(oldCuts))
	for ei := range oldCuts {
		eis = append(eis, ei)
	}
	sort.Ints(eis)
	for _, ei := range eis {
		e := b.Edges[ei]
		pa, pb := b.Verts[e.V1].P, b.Verts[e.V2].P
		interior := oldCuts[ei][:0]
		for _, p := range oldCuts[ei] {
			if !p.Equal(pa) && !p.Equal(pb) {
				interior = append(interior, p)
			}
		}
		if len(interior) == 0 {
			continue
		}
		chain := sortChain(interior, pa, pb)
		// Vertex chain V1, w1..wk, V2.
		vs := make([]int, 0, len(chain)+2)
		vs = append(vs, e.V1)
		for _, p := range chain {
			vs = append(vs, s.getV(p, gained))
		}
		vs = append(vs, e.V2)
		k := len(vs) - 2 // interior vertex count, >= 1

		delete(s.edgeAt, ekey(e.V1, e.V2))
		h1, h2 := e.H1, e.H2

		// First sub-piece reuses slot ei and half h1.
		nh0 := len(b.Half)
		b.Half = append(b.Half, HalfEdge{Edge: ei, Origin: vs[1], Twin: h1, Next: -1, Face: -1})
		b.Half[h1].Twin = nh0
		b.Edges[ei] = Edge{V1: e.V1, V2: vs[1], Owners: e.Owners, H1: h1, H2: nh0}
		s.edgeAt[ekey(e.V1, vs[1])] = ei
		gained[vs[1]] = append(gained[vs[1]], nh0)

		// Interior sub-pieces.
		for j := 1; j < k; j++ {
			ne := len(b.Edges)
			hA, hB := len(b.Half), len(b.Half)+1
			b.Edges = append(b.Edges, Edge{V1: vs[j], V2: vs[j+1], Owners: e.Owners, H1: hA, H2: hB})
			b.Half = append(b.Half,
				HalfEdge{Edge: ne, Origin: vs[j], Twin: hB, Next: -1, Face: -1},
				HalfEdge{Edge: ne, Origin: vs[j+1], Twin: hA, Next: -1, Face: -1},
			)
			s.edgeProv = append(s.edgeProv, int32(ei))
			s.edgeAt[ekey(vs[j], vs[j+1])] = ne
			gained[vs[j]] = append(gained[vs[j]], hA)
			gained[vs[j+1]] = append(gained[vs[j+1]], hB)
		}

		// Last sub-piece reuses half h2.
		ne := len(b.Edges)
		hL := len(b.Half)
		b.Half = append(b.Half, HalfEdge{Edge: ne, Origin: vs[k], Twin: h2, Next: -1, Face: -1})
		b.Edges = append(b.Edges, Edge{V1: vs[k], V2: e.V2, Owners: e.Owners, H1: hL, H2: h2})
		b.Half[h2].Edge = ne
		b.Half[h2].Twin = hL
		s.edgeProv = append(s.edgeProv, int32(ei))
		s.edgeAt[ekey(vs[k], e.V2)] = ne
		gained[vs[k]] = append(gained[vs[k]], hL)
	}
}

// insertNewPieces materializes the new segments' sub-pieces: pieces
// coincident with an existing (possibly just re-split) edge merge their
// owner set into it; everything else becomes a fresh edge whose endpoints
// gain rotation entries.
func (s *inserter) insertNewPieces(newCuts [][]geom.Pt, gained map[int][]int) {
	b := s.b
	for si := range newCuts {
		own := s.newSegs[si].o
		chain := sortChain(newCuts[si], s.newSegs[si].s.A, s.newSegs[si].s.B)
		for j := 0; j+1 < len(chain); j++ {
			va := s.getV(chain[j], gained)
			vb := s.getV(chain[j+1], gained)
			key := ekey(va, vb)
			if ei, ok := s.edgeAt[key]; ok {
				b.Edges[ei].Owners = b.Pool.Union(b.Edges[ei].Owners, own)
				continue
			}
			ei := len(b.Edges)
			hA, hB := len(b.Half), len(b.Half)+1
			b.Edges = append(b.Edges, Edge{V1: va, V2: vb, Owners: own, H1: hA, H2: hB})
			b.Half = append(b.Half,
				HalfEdge{Edge: ei, Origin: va, Twin: hB, Next: -1, Face: -1},
				HalfEdge{Edge: ei, Origin: vb, Twin: hA, Next: -1, Face: -1},
			)
			s.edgeProv = append(s.edgeProv, -1)
			s.edgeAt[key] = ei
			gained[va] = append(gained[va], hA)
			gained[vb] = append(gained[vb], hB)
			if va < s.oldVerts {
				s.touched[va] = true
			}
			if vb < s.oldVerts {
				s.touched[vb] = true
			}
		}
	}
}

// rebuildRotation re-sorts the rotation order of touched vertices (their
// parent entries stay valid — re-split edges keep the half originating at
// each old endpoint, pointing the same direction), rebuilds every Next
// pointer from the rotation orders, and marks the half-edges whose walks
// could have changed: new halves plus both directions at touched vertices.
func (s *inserter) rebuildRotation(gained map[int][]int) {
	b := s.b
	for vi, halves := range gained {
		var out []int
		if vi < s.oldVerts {
			s.touched[vi] = true
			out = append(append(make([]int, 0, len(s.parent.Verts[vi].Out)+len(halves)),
				s.parent.Verts[vi].Out...), halves...)
		} else {
			out = halves
		}
		sort.Slice(out, func(i, j int) bool {
			return geom.AngleLess(b.dir(out[i]), b.dir(out[j]))
		})
		b.Verts[vi].Out = out
	}
	for vi := range b.Verts {
		out := b.Verts[vi].Out
		for k, h := range out {
			pred := out[(k-1+len(out))%len(out)]
			b.Half[b.Half[h].Twin].Next = pred
		}
	}
	s.dirtyH = make([]bool, len(b.Half))
	for h := s.oldHalf; h < len(b.Half); h++ {
		s.dirtyH[h] = true
	}
	for vi, t := range s.touched {
		if !t {
			continue
		}
		for _, h := range b.Verts[vi].Out {
			s.dirtyH[h] = true
			s.dirtyH[b.Half[h].Twin] = true
		}
	}
}

// rebuildComponents runs the cold component pass over the derived
// complex, then one linear pass marks what the delta changed. A component
// is changed when it holds a new vertex or one that gained half-edges
// (touched marks both). Every other component is exactly a parent
// component — Insert never removes a cell, so it keeps its parent's
// vertices, edges and rotation orders — and maps to its root's parent
// component.
func (s *inserter) rebuildComponents() {
	b := s.b
	b.buildComponents()
	changed := make([]bool, len(b.Comps))
	for vi, t := range s.touched {
		if t {
			changed[b.Verts[vi].Comp] = true
		}
	}
	s.compParent = make([]int32, len(b.Comps))
	for ci := range b.Comps {
		s.compParent[ci] = -1
		if !changed[ci] {
			s.compParent[ci] = int32(s.parent.Verts[b.Comps[ci].RootVertex].Comp)
		}
	}
}

// rebuildFaces retraces every walk (cheap pointer chasing), reusing the
// parent's area, box, sample and identity for walks without a dirty half-
// edge, then recreates the face set and the nesting forest. Only
// components touched by the delta — or standing inside a face the delta
// changed — go through nest; every other component keeps its parent
// nesting.
func (s *inserter) rebuildFaces(ctx context.Context) error {
	b, parent := s.b, s.parent

	// 1. Trace walks.
	walkOf := make([]int32, len(b.Half))
	for i := range walkOf {
		walkOf[i] = -1
	}
	nW := len(parent.walkMin) + 8
	walkStart := make([]int, 0, nW)
	walkDirty := make([]bool, 0, nW)
	b.walkMin = make([]int32, 0, nW)
	b.walkArea = make([]rat.R, 0, nW)
	var members []int
	for h := range b.Half {
		if walkOf[h] != -1 {
			continue
		}
		if h&255 == 0 && ctx.Err() != nil {
			return canceled(ctx)
		}
		wi := len(walkStart)
		minH := h
		dirty := false
		members = members[:0]
		for cur := h; ; {
			walkOf[cur] = int32(wi)
			if cur < minH {
				minH = cur
			}
			dirty = dirty || s.dirtyH[cur]
			members = append(members, cur)
			cur = b.Half[cur].Next
			if cur == h {
				break
			}
		}
		var area rat.R
		if !dirty {
			area = parent.walkArea[parent.walkOf[h]]
		} else {
			area = rat.Zero
			for _, cur := range members {
				o := b.Verts[b.Half[cur].Origin].P
				d := b.Verts[b.Head(cur)].P
				area = area.Add(geom.Cross(o, d))
			}
		}
		walkStart = append(walkStart, h)
		walkDirty = append(walkDirty, dirty)
		b.walkMin = append(b.walkMin, int32(minH))
		b.walkArea = append(b.walkArea, area)
	}
	b.walkOf = walkOf
	s.walkDirty = walkDirty

	// 2. Outer walks.
	for wi, start := range walkStart {
		if b.walkArea[wi].Sign() < 0 {
			b.Comps[b.Verts[b.Half[start].Origin].Comp].OuterWalk = start
		}
	}

	// 3. Faces from positive walks; clean ones mapped to their parent face.
	faceOfWalk := make([]int, len(walkStart))
	for i := range faceOfWalk {
		faceOfWalk[i] = -1
	}
	nPF := len(parent.Faces) + 4
	faceMap := make(map[int]int, nPF) // parent face -> new face
	cleanFace := make([]int, 0, nPF)  // new face -> parent face or -1
	b.Faces = make([]Face, 0, nPF)
	b.faceBox = make([]geom.Box, 0, nPF)
	for wi, start := range walkStart {
		if b.walkArea[wi].Sign() <= 0 {
			continue
		}
		fi := len(b.Faces)
		faceOfWalk[wi] = fi
		b.Faces = append(b.Faces, Face{
			Walks:   []int{start},
			Bounded: true,
			Comp:    b.Verts[b.Half[start].Origin].Comp,
			Area2:   b.walkArea[wi],
		})
		if !walkDirty[wi] {
			pf := parent.Half[start].Face
			faceMap[pf] = fi
			cleanFace = append(cleanFace, pf)
			b.faceBox = append(b.faceBox, parent.faceBox[pf])
			b.Faces[fi].Sample = parent.Faces[pf].Sample
		} else {
			cleanFace = append(cleanFace, -1)
			b.faceBox = append(b.faceBox, b.walkBox(start))
		}
	}
	b.Exterior = len(b.Faces)
	b.Faces = append(b.Faces, Face{Bounded: false, Comp: -1})
	b.faceBox = append(b.faceBox, geom.Box{})
	cleanFace = append(cleanFace, -1)
	faceMap[parent.Exterior] = b.Exterior

	// 4. Nesting. A component re-nests exactly when the delta could have
	// changed its parent face: it contains delta cells itself, its parent
	// face did not survive cleanly, or it stands inside the box of a face
	// the delta created or reshaped (a new enclosing walk can only be
	// dirty). Everyone else keeps the parent's nesting verbatim. Outer
	// walks then attach as in the cold build.
	var dirtyFaceBoxes []geom.Box
	for fi := range b.Faces {
		if b.Faces[fi].Bounded && cleanFace[fi] == -1 {
			dirtyFaceBoxes = append(dirtyFaceBoxes, b.faceBox[fi])
		}
	}
	var renest []int
	for ci := range b.Comps {
		c := &b.Comps[ci]
		if pc := s.compParent[ci]; pc >= 0 {
			nf, ok := faceMap[parent.Comps[pc].ParentFace]
			p := b.Verts[c.RootVertex].P
			for k := 0; ok && k < len(dirtyFaceBoxes); k++ {
				ok = !dirtyFaceBoxes[k].ContainsPt(p)
			}
			if ok {
				c.ParentFace = nf
				continue
			}
		}
		renest = append(renest, ci)
	}
	if err := b.nest(ctx, renest); err != nil {
		return err
	}
	b.attachFaces(faceOfWalk)

	// 5. Samples. The bounding box only grows by the delta.
	b.bbox = parent.bbox.Union(s.deltaBox)
	b.Faces[b.Exterior].Sample = geom.Pt{
		X: b.bbox.MaxX.Add(rat.One), Y: b.bbox.MaxY.Add(rat.One),
	}
	for fi := range b.Faces {
		f := &b.Faces[fi]
		if !f.Bounded {
			continue
		}
		resample := cleanFace[fi] == -1
		if !resample {
			// A clean face keeps its parent sample unless its set of
			// attached island walks changed (a new island can swallow the
			// old sample). Walks are compared by their minimal member
			// half-edge — the identity that survives across generations.
			pf := cleanFace[fi]
			if !s.sameAttachedWalks(f, &parent.Faces[pf]) {
				resample = true
			}
		}
		if resample {
			sample, err := b.samplePastHalfEdge(f.Walks[0], b.bbox, f.Walks)
			if err != nil {
				return fmt.Errorf("arrange: face %d: %w", fi, err)
			}
			f.Sample = sample
		}
	}
	s.cleanFaceOf = cleanFace
	return nil
}

// sameAttachedWalks reports whether a new face carries exactly the same
// attached (non-primary) walks as its parent face, walk identity taken as
// the minimal member half-edge id. A dirty attached walk never counts as
// the same even when it kept its minimal half-edge: an island that merged
// with delta geometry can change shape — and swallow the parent sample —
// without changing its identity key.
func (s *inserter) sameAttachedWalks(f *Face, pf *Face) bool {
	if len(f.Walks) != len(pf.Walks) {
		return false
	}
	if len(f.Walks) == 1 {
		return true
	}
	mine := make([]int32, 0, len(f.Walks)-1)
	for _, w := range f.Walks[1:] {
		wi := s.b.walkOf[w]
		if s.walkDirty[wi] {
			return false
		}
		mine = append(mine, s.b.walkMin[wi])
	}
	theirs := make([]int32, 0, len(pf.Walks)-1)
	for _, w := range pf.Walks[1:] {
		theirs = append(theirs, s.parent.walkMin[s.parent.walkOf[w]])
	}
	sort.Slice(mine, func(i, j int) bool { return mine[i] < mine[j] })
	sort.Slice(theirs, func(i, j int) bool { return theirs[i] < theirs[j] })
	for i := range mine {
		if mine[i] != theirs[i] {
			return false
		}
	}
	return true
}

// rebuildLabels extends every cell's label: old-region entries are copied
// from the parent cell the point came from (by provenance for surviving
// cells and sub-pieces, through the parent's point-location index for
// everything the delta created), and only the added regions pay exact ring
// walks — and only at cells inside their bounding boxes. With the identity
// remap, a cell no added region reaches shares its parent label's entries
// outright; otherwise the parent entries are re-indexed (the remap is
// ascending, so they stay sorted) and merged with the added ones.
func (s *inserter) rebuildLabels(ctx context.Context) error {
	b, parent := s.b, s.parent
	nR := len(b.Names)
	nF, nE, nV := len(b.Faces), len(b.Edges), len(b.Verts)

	// Old-region signs: the parent label each cell inherits, in the
	// parent's index space. Cells: faces, then edges, then vertices.
	src := make([]Label, nF+nE+nV)
	fromParentCell := func(l Loc) Label {
		switch l.Kind {
		case LocVertex:
			return parent.Verts[l.Index].Label
		case LocEdge:
			return parent.Edges[l.Index].Label
		default:
			return parent.Faces[l.Index].Label
		}
	}
	for fi := range b.Faces {
		if pf := s.cleanFaceOf[fi]; pf >= 0 {
			src[fi] = parent.Faces[pf].Label
		} else if fi == b.Exterior {
			src[fi] = parent.Faces[parent.Exterior].Label
		} else {
			loc := parent.Locate(b.Faces[fi].Sample)
			if loc.Kind != LocFace {
				return fmt.Errorf("arrange: insert: face %d sample %s lies on the parent skeleton",
					fi, b.Faces[fi].Sample)
			}
			src[fi] = parent.Faces[loc.Index].Label
		}
	}
	for ei := range b.Edges {
		if pe := s.edgeProv[ei]; pe >= 0 {
			src[nF+ei] = parent.Edges[pe].Label
		} else {
			e := &b.Edges[ei]
			src[nF+ei] = fromParentCell(parent.Locate(geom.Mid(b.Verts[e.V1].P, b.Verts[e.V2].P)))
		}
	}
	for vi := range b.Verts {
		if vi < s.oldVerts {
			src[nF+nE+vi] = parent.Verts[vi].Label
		} else {
			src[nF+nE+vi] = fromParentCell(parent.Locate(b.Verts[vi].P))
		}
	}
	if ctx.Err() != nil {
		return canceled(ctx)
	}

	// Added-region entries, collected per region in ascending region order.
	type cellEnt struct {
		k int32
		e labelEnt
	}
	var adds []cellEnt
	for _, ri := range s.addedIdx {
		r := s.in.MustExt(b.Names[ri])
		ring, box := r.Ring(), r.Box()
		classify := func(k int, p geom.Pt) {
			if !box.ContainsPt(p) {
				return
			}
			switch geom.RingContains(ring, p) {
			case geom.Inside:
				adds = append(adds, cellEnt{int32(k), mkEnt(ri, Interior)})
			case geom.OnBoundary:
				adds = append(adds, cellEnt{int32(k), mkEnt(ri, Boundary)})
			}
		}
		for fi := range b.Faces {
			classify(fi, b.Faces[fi].Sample)
		}
		for ei := range b.Edges {
			e := &b.Edges[ei]
			p1, p2 := b.Verts[e.V1].P, b.Verts[e.V2].P
			// Both endpoints on one outside of the region's box means the
			// midpoint is outside it too: skip the midpoint arithmetic.
			if (p1.X.Less(box.MinX) && p2.X.Less(box.MinX)) ||
				(box.MaxX.Less(p1.X) && box.MaxX.Less(p2.X)) ||
				(p1.Y.Less(box.MinY) && p2.Y.Less(box.MinY)) ||
				(box.MaxY.Less(p1.Y) && box.MaxY.Less(p2.Y)) {
				continue
			}
			classify(nF+ei, geom.Mid(p1, p2))
		}
		for vi := range b.Verts {
			classify(nF+nE+vi, b.Verts[vi].P)
		}
		if ctx.Err() != nil {
			return canceled(ctx)
		}
	}
	sort.Slice(adds, func(i, j int) bool {
		if adds[i].k != adds[j].k {
			return adds[i].k < adds[j].k
		}
		return adds[i].e < adds[j].e
	})
	for _, a := range adds {
		if int(a.k) < nF && a.e.sign() == Boundary {
			return fmt.Errorf("arrange: insert: face sample %s lies on boundary of %s",
				b.Faces[a.k].Sample, b.Names[a.e.region()])
		}
	}

	// Assemble: every label that is not shared verbatim lands in one
	// backing array, sized exactly.
	size := len(adds)
	if !s.identity {
		for k := range src {
			size += len(src[k].ents)
		}
	} else {
		for i := 0; i < len(adds); {
			k := adds[i].k
			size += len(src[k].ents)
			for i < len(adds) && adds[i].k == k {
				i++
			}
		}
	}
	backing := make([]labelEnt, 0, size)
	j := 0
	for k := range src {
		jEnd := j
		for jEnd < len(adds) && int(adds[jEnd].k) == k {
			jEnd++
		}
		l := Label{ents: src[k].ents, n: nR}
		if !s.identity || jEnd > j {
			start := len(backing)
			for _, e := range src[k].ents {
				e = mkEnt(s.remap[e.region()], e.sign())
				for ; j < jEnd && adds[j].e < e; j++ {
					backing = append(backing, adds[j].e)
				}
				backing = append(backing, e)
			}
			for ; j < jEnd; j++ {
				backing = append(backing, adds[j].e)
			}
			l.ents = backing[start:len(backing):len(backing)]
		}
		j = jEnd
		switch {
		case k < nF:
			b.Faces[k].Label = l
		case k < nF+nE:
			b.Edges[k-nF].Label = l
		default:
			b.Verts[k-nF-nE].Label = l
		}
	}

	// The cold build's ownership check, over the merged labels.
	for ei := range b.Edges {
		if err := b.checkEdgeOwners(ei, b.Edges[ei].Label); err != nil {
			return fmt.Errorf("arrange: insert: %w", err)
		}
	}
	return nil
}
