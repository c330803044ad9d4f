// Package folang implements the paper's region-based first-order query
// languages FO(Region, Region′) (§4): the closure of the 4-intersection
// relations under boolean connectives and quantifiers that range over
// regions. Quantification over all regions of the plane is undecidable
// (Theorem 6.1), so evaluation uses the tractable semantics the paper
// proposes in §7:
//
//   - "cell" quantifiers range over the 2-cells of the arrangement of the
//     instance (optionally refined by a scaffold grid);
//   - "region" quantifiers range over legitimate regions — open, bounded,
//     connected, simply connected unions of cells (disc homeomorphs) — up
//     to a configurable enumeration budget.
//
// The paper observes (§7) that this language separates Fig 1a/1b and
// Fig 1c/1d, which Boolean combinations of the 4-intersection relations
// cannot; the tests reproduce exactly that.
package folang

import (
	"context"
	"fmt"
	"sync"

	"topodb/internal/arrange"
	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/spatial"
)

// Universe is the evaluation context: an arrangement plus region extents
// and, built on first use, cell closures and incidence. Cell numbering:
// faces first, then edges, then vertices.
type Universe struct {
	A  *arrange.Arrangement
	In *spatial.Instance

	nf, ne, nv int
	// Region extents in compressed sparse rows, indexed by A.RegionIndex:
	// the interior cells of region ri are regCells[regOff[ri]:regOff[ri+1]],
	// ascending. Storage is O(Σ support), where per-region bitsets would
	// be regions × cells.
	regOff   []int32
	regCells []int32

	// tab holds the structural tables, built once by the first reader
	// (tables): a query that reads only region rows, such as a cell
	// quantifier over subset, never builds them.
	tabOnce sync.Once
	tab     *cellTables

	// refine is the k the universe's scaffold grid was generated at
	// (NewUniverseCtx / InsertUniverseRefined); 0 for unrefined universes.
	// InsertUniverseRefined requires parent.refine == refine, since the
	// grid shape is part of the fixed geometry the delta path preserves.
	refine int
}

// cellTables are a universe's structural tables. They are a pure function
// of the arrangement, immutable once built.
type cellTables struct {
	// Cell closures in compressed sparse rows: the closure of cell i is
	// cloList[cloOff[i]:cloOff[i+1]] (the cell itself included). Closures
	// are tiny (a face closes over its boundary edges and their endpoints,
	// an edge over its endpoints), so the CSR form is linear in the complex
	// where per-cell bitsets would be quadratic.
	cloOff  []int32
	cloList []int32
	// faceAdj: faces sharing an edge (by face cell index).
	faceAdj [][]int
	// edgeFaces[e] lists the one or two faces incident to edge e.
	edgeFaces [][]int
	// vertCells[v] lists all edges and faces incident to vertex v.
	vertCells [][]int
}

// Refine returns the scaffold refinement level k the universe was built
// at (0 for unrefined universes).
func (u *Universe) Refine() int { return u.refine }

// CellID helpers.
func (u *Universe) faceCell(i int) int { return i }
func (u *Universe) edgeCell(i int) int { return u.nf + i }
func (u *Universe) vertCell(i int) int { return u.nf + u.ne + i }

// NumCells returns the total cell count.
func (u *Universe) NumCells() int { return u.nf + u.ne + u.nv }

// NumFaces returns the number of 2-cells.
func (u *Universe) NumFaces() int { return u.nf }

// GridScaffold returns k×k grid segments spanning the instance's bounding
// box (inflated by one unit), used to refine the arrangement.
func GridScaffold(in *spatial.Instance, k int) []geom.Seg {
	if k <= 0 {
		return nil
	}
	box, ok := in.Box()
	if !ok {
		return nil
	}
	minX, minY := box.MinX.Sub(rat.One), box.MinY.Sub(rat.One)
	maxX, maxY := box.MaxX.Add(rat.One), box.MaxY.Add(rat.One)
	w, h := maxX.Sub(minX), maxY.Sub(minY)
	var segs []geom.Seg
	// Include the border lines (i = 0 and i = k): without a closed frame
	// the rim cells leak into the unbounded face and every bounded cell
	// can end up touching every region.
	for i := 0; i <= k; i++ {
		t := rat.FromFrac(int64(i), int64(k))
		x := minX.Add(w.Mul(t))
		y := minY.Add(h.Mul(t))
		segs = append(segs,
			geom.Seg{A: geom.Pt{X: x, Y: minY}, B: geom.Pt{X: x, Y: maxY}},
			geom.Seg{A: geom.Pt{X: minX, Y: y}, B: geom.Pt{X: maxX, Y: y}},
		)
	}
	return segs
}

// NewUniverse builds the evaluation context for an instance; refine > 0
// overlays a refine×refine scaffold grid for finer region quantification.
func NewUniverse(in *spatial.Instance, refine int) (*Universe, error) {
	return NewUniverseCtx(context.Background(), in, refine)
}

// NewUniverseCtx is NewUniverse honoring ctx: the scaffolded arrangement
// build and the universe's extents pass poll the context and abandon the
// construction once it fires, so a canceled refined (k > 0) query stops
// burning CPU instead of building the scaffold universe to completion.
// The structural tables are built later, on first use, in one linear
// pass over the finished arrangement.
func NewUniverseCtx(ctx context.Context, in *spatial.Instance, refine int) (*Universe, error) {
	a, err := arrange.BuildWithScaffoldCtx(ctx, in, GridScaffold(in, refine))
	if err != nil {
		return nil, err
	}
	u, err := newUniverseFrom(ctx, a, in)
	if err != nil {
		return nil, err
	}
	u.refine = refine
	return u, nil
}

// NewUniverseFromArrangement builds the evaluation context from an
// arrangement that was already computed for the instance (as by
// arrange.Build). It is the cache-friendly entry point: callers that
// memoize the arrangement share it between the invariant, the thematic
// image, and the query universe instead of rebuilding it per consumer. The
// universe only reads the arrangement, so one arrangement may back many
// universes concurrently.
func NewUniverseFromArrangement(a *arrange.Arrangement, in *spatial.Instance) (*Universe, error) {
	return newUniverseFrom(context.Background(), a, in)
}

// NewUniverseFromArrangementCtx is NewUniverseFromArrangement honoring ctx
// in the universe's extents pass.
func NewUniverseFromArrangementCtx(ctx context.Context, a *arrange.Arrangement, in *spatial.Instance) (*Universe, error) {
	return newUniverseFrom(ctx, a, in)
}

// canceled wraps a fired context's error so callers see both the folang
// origin and (via errors.Is) the underlying context cause.
func canceled(ctx context.Context) error {
	return fmt.Errorf("folang: universe build canceled: %w", ctx.Err())
}

func newUniverseFrom(ctx context.Context, a *arrange.Arrangement, in *spatial.Instance) (*Universe, error) {
	u := &Universe{
		A: a, In: in,
		nf: len(a.Faces), ne: len(a.Edges), nv: len(a.Verts),
	}

	// Region extents: the open set of cells labeled Interior. A count
	// pass sizes the rows and a place pass fills them; both walk the
	// label entries in cell order, so every row comes out ascending.
	u.regOff = make([]int32, len(a.Names)+1)
	if err := u.interiors(ctx, func(ri, _ int) { u.regOff[ri+1]++ }); err != nil {
		return nil, err
	}
	for ri := range a.Names {
		u.regOff[ri+1] += u.regOff[ri]
	}
	u.regCells = make([]int32, u.regOff[len(a.Names)])
	next := append([]int32(nil), u.regOff[:len(a.Names)]...)
	if err := u.interiors(ctx, func(ri, cell int) {
		u.regCells[next[ri]] = int32(cell)
		next[ri]++
	}); err != nil {
		return nil, err
	}
	return u, nil
}

// interiors calls fn(ri, cell) for every label entry marking a cell
// Interior to region ri, in increasing cell order.
func (u *Universe) interiors(ctx context.Context, fn func(ri, cell int)) error {
	a := u.A
	visit := func(l arrange.Label, cell int) {
		for k := 0; k < l.NumEntries(); k++ {
			if ri, s := l.Entry(k); s == arrange.Interior {
				fn(ri, cell)
			}
		}
	}
	for fi := range a.Faces {
		if fi&1023 == 0 && ctx.Err() != nil {
			return canceled(ctx)
		}
		visit(a.Faces[fi].Label, u.faceCell(fi))
	}
	for ei := range a.Edges {
		if ei&1023 == 0 && ctx.Err() != nil {
			return canceled(ctx)
		}
		visit(a.Edges[ei].Label, u.edgeCell(ei))
	}
	for vi := range a.Verts {
		visit(a.Verts[vi].Label, u.vertCell(vi))
	}
	return nil
}

// tables returns the universe's structural tables, building them on the
// first call. Concurrent first readers build them once; the build takes
// no ctx, since it is one linear pass over an arrangement that already
// exists, so it never leaves a half-built table behind.
func (u *Universe) tables() *cellTables {
	u.tabOnce.Do(func() { u.tab = u.buildTables() })
	return u.tab
}

// buildTables fills the structural tables — cell closures (CSR),
// edge→face and vertex→cell incidence, face adjacency — in one linear
// pass over the face walks plus one over the edges. A face closes over its
// boundary edges and their endpoints; an edge over its endpoints.
func (u *Universe) buildTables() *cellTables {
	a := u.A
	n := u.NumCells()
	t := &cellTables{
		edgeFaces: make([][]int, u.ne),
		vertCells: make([][]int, u.nv),
		cloOff:    make([]int32, n+1),
		cloList:   make([]int32, 0, n+9*u.ne),
	}

	// Per-face dedup stamps: an edge (or vertex) joins a face's closure
	// once even when the walks visit it repeatedly.
	edgeStamp := make([]int32, u.ne)
	for i := range edgeStamp {
		edgeStamp[i] = -1
	}
	vertStamp := make([]int32, u.nv)
	for i := range vertStamp {
		vertStamp[i] = -1
	}

	for fi := range a.Faces {
		t.cloList = append(t.cloList, int32(u.faceCell(fi)))
		for _, w := range a.Faces[fi].Walks {
			for _, h := range a.WalkHalfEdges(w) {
				ei := a.Half[h].Edge
				if edgeStamp[ei] == int32(fi) {
					continue
				}
				edgeStamp[ei] = int32(fi)
				t.edgeFaces[ei] = append(t.edgeFaces[ei], fi)
				t.cloList = append(t.cloList, int32(u.edgeCell(ei)))
				e := &a.Edges[ei]
				for _, v := range [2]int{e.V1, e.V2} {
					if vertStamp[v] == int32(fi) {
						continue
					}
					vertStamp[v] = int32(fi)
					t.vertCells[v] = append(t.vertCells[v], u.faceCell(fi))
					t.cloList = append(t.cloList, int32(u.vertCell(v)))
				}
			}
		}
		t.cloOff[u.faceCell(fi)+1] = int32(len(t.cloList))
	}
	for ei := range a.Edges {
		e := &a.Edges[ei]
		ec := u.edgeCell(ei)
		t.cloList = append(t.cloList, int32(ec), int32(u.vertCell(e.V1)))
		t.vertCells[e.V1] = append(t.vertCells[e.V1], ec)
		if e.V2 != e.V1 {
			t.cloList = append(t.cloList, int32(u.vertCell(e.V2)))
			t.vertCells[e.V2] = append(t.vertCells[e.V2], ec)
		}
		t.cloOff[ec+1] = int32(len(t.cloList))
	}
	for vi := 0; vi < u.nv; vi++ {
		vc := u.vertCell(vi)
		t.cloList = append(t.cloList, int32(vc))
		t.cloOff[vc+1] = int32(len(t.cloList))
	}

	// Face adjacency via shared edges.
	t.faceAdj = make([][]int, u.nf)
	for ei := range a.Edges {
		fs := t.edgeFaces[ei]
		if len(fs) == 2 && fs[0] != fs[1] {
			t.faceAdj[fs[0]] = append(t.faceAdj[fs[0]], fs[1])
			t.faceAdj[fs[1]] = append(t.faceAdj[fs[1]], fs[0])
		}
	}
	return t
}

// Region returns a fresh bitset of a named region's extent, or nil when
// the universe has no region of that name.
func (u *Universe) Region(name string) Bits {
	ri := u.A.RegionIndex(name)
	if ri < 0 {
		return nil
	}
	b := NewBits(u.NumCells())
	for _, c := range u.regionRow(ri) {
		b.Set(int(c))
	}
	return b
}

// regionRow returns the interior cells of region index ri, ascending.
func (u *Universe) regionRow(ri int) []int32 { return u.regCells[u.regOff[ri]:u.regOff[ri+1]] }

// closureRow returns the closure of cell c (c included) as cell ids.
func (u *Universe) closureRow(c int) []int32 {
	t := u.tables()
	return t.cloList[t.cloOff[c]:t.cloOff[c+1]]
}

// ClosureOf returns the topological closure of a cell set.
func (u *Universe) ClosureOf(b Bits) Bits {
	out := NewBits(u.NumCells())
	b.ForEach(func(i int) {
		for _, j := range u.closureRow(i) {
			out.Set(int(j))
		}
	})
	return out
}

// BoundaryOf returns the boundary of an open cell set (closure minus the
// set itself).
func (u *Universe) BoundaryOf(b Bits) Bits {
	out := u.ClosureOf(b)
	out.AndNot(b)
	return out
}

// SingleFace returns the cell set containing just face fi.
func (u *Universe) SingleFace(fi int) Bits {
	b := NewBits(u.NumCells())
	b.Set(u.faceCell(fi))
	return b
}

// RegularUnion returns the maximal open cell set whose faces are exactly
// the given face set: the faces plus every edge both of whose incident
// faces are included plus every vertex all of whose incident cells are
// included.
func (u *Universe) RegularUnion(faces []int) Bits {
	t := u.tables()
	b := NewBits(u.NumCells())
	inFace := make(map[int]bool, len(faces))
	for _, f := range faces {
		b.Set(u.faceCell(f))
		inFace[f] = true
	}
	for ei := range t.edgeFaces {
		fs := t.edgeFaces[ei]
		if len(fs) == 2 && inFace[fs[0]] && inFace[fs[1]] {
			b.Set(u.edgeCell(ei))
		}
		if len(fs) == 1 && inFace[fs[0]] {
			// A bridge edge inside the face set: including it keeps the
			// set open (both sides are the same face).
			b.Set(u.edgeCell(ei))
		}
	}
	for vi := range t.vertCells {
		all := true
		for _, c := range t.vertCells[vi] {
			if !b.Has(c) {
				all = false
				break
			}
		}
		if all && len(t.vertCells[vi]) > 0 {
			b.Set(u.vertCell(vi))
		}
	}
	return b
}

// IsDiscRegion reports whether the face set induces a legitimate region:
// bounded, edge-connected, and simply connected (complement faces
// connected, including the exterior face).
func (u *Universe) IsDiscRegion(faces []int) bool {
	if len(faces) == 0 {
		return false
	}
	in := make(map[int]bool, len(faces))
	for _, f := range faces {
		if f == u.A.Exterior {
			return false // unbounded
		}
		in[f] = true
	}
	// Connectivity of the face set.
	if !u.facesConnected(faces, in, true) {
		return false
	}
	// Complement connectivity.
	var comp []int
	out := make(map[int]bool)
	for fi := 0; fi < u.nf; fi++ {
		if !in[fi] {
			comp = append(comp, fi)
			out[fi] = true
		}
	}
	if len(comp) == 0 {
		return false
	}
	return u.facesConnected(comp, out, true)
}

func (u *Universe) facesConnected(faces []int, in map[int]bool, _ bool) bool {
	faceAdj := u.tables().faceAdj
	seen := map[int]bool{faces[0]: true}
	stack := []int{faces[0]}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, g := range faceAdj[f] {
			if in[g] && !seen[g] {
				seen[g] = true
				stack = append(stack, g)
			}
		}
	}
	return len(seen) == len(faces)
}

// EnumDiscRegions enumerates legitimate regions (as face index slices) in
// nondecreasing size (iterative deepening, so small witnesses are found
// first), calling yield for each; enumeration stops when yield returns
// false or when limit candidate subsets have been examined. maxFaces caps
// the region size (0 = all bounded faces). The return value reports
// whether the domain was exhausted: false means enumeration stopped early
// — the limit budget ran out or yield asked to stop — so absent witnesses
// beyond that point are unknown, not refuted.
func (u *Universe) EnumDiscRegions(limit, maxFaces int, yield func(faces []int) bool) bool {
	faceAdj := u.tables().faceAdj
	bounded := make([]int, 0, u.nf)
	for fi := 0; fi < u.nf; fi++ {
		if fi != u.A.Exterior {
			bounded = append(bounded, fi)
		}
	}
	if maxFaces <= 0 || maxFaces > len(bounded) {
		maxFaces = len(bounded)
	}
	produced := 0
	// Enumerate connected subsets of exactly the target size via the
	// classic extension scheme with a canonical root (the minimum face).
	for size := 1; size <= maxFaces; size++ {
		var rec func(cur []int, inCur, banned map[int]bool, frontier []int) bool
		rec = func(cur []int, inCur, banned map[int]bool, frontier []int) bool {
			if len(cur) == size {
				produced++
				if u.IsDiscRegion(cur) {
					if !yield(append([]int(nil), cur...)) {
						return false
					}
				}
				return produced < limit
			}
			localBan := []int{}
			ok := true
			for idx := 0; idx < len(frontier) && ok; idx++ {
				f := frontier[idx]
				if banned[f] || inCur[f] {
					continue
				}
				inCur[f] = true
				cur = append(cur, f)
				ext := append([]int(nil), frontier[idx+1:]...)
				for _, g := range faceAdj[f] {
					if !inCur[g] && !banned[g] && g != u.A.Exterior {
						ext = append(ext, g)
					}
				}
				ok = rec(cur, inCur, banned, ext)
				cur = cur[:len(cur)-1]
				delete(inCur, f)
				banned[f] = true
				localBan = append(localBan, f)
			}
			for _, f := range localBan {
				delete(banned, f)
			}
			return ok
		}
		for i, root := range bounded {
			banned := map[int]bool{}
			for _, earlier := range bounded[:i] {
				banned[earlier] = true
			}
			var frontier []int
			for _, g := range faceAdj[root] {
				if !banned[g] && g != u.A.Exterior {
					frontier = append(frontier, g)
				}
			}
			if !rec([]int{root}, map[int]bool{root: true}, banned, frontier) {
				return false
			}
		}
	}
	return true
}

// String summarizes the universe.
func (u *Universe) String() string {
	return fmt.Sprintf("universe: %d faces, %d edges, %d vertices", u.nf, u.ne, u.nv)
}
