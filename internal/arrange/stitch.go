package arrange

import (
	"context"
	"fmt"

	"topodb/internal/geom"
	"topodb/internal/rat"
)

// Stitch composes the exact global arrangement from the sharded artifact.
// The result is cell-for-cell identical to a monolithic Build of the same
// instance — identical vertex and edge point sets, walks, face areas,
// samples and labels — so every canonical encoding derived from it
// (invariant, fingerprints) is byte-identical to the monolithic path's.
// Cell array order and owner-pool handle numbering may differ; nothing
// downstream depends on either.
//
// Why composition is exact: shards are the connected components of the
// closed box-overlap graph, so distinct shards' skeletons live in
// disjoint closed box unions. Cross-shard segments never intersect,
// every vertex, edge, walk and rotation order is shard-local, and every
// shard cell is Exterior to every foreign region (a shard's points lie in
// its own member boxes, disjoint from all foreign boxes) — so a local
// label's entries, mapped to global region indices, are the global label.
// The one genuinely global computation is nesting: a whole shard can sit inside
// another shard's face. Because a shard's box union is connected and
// disjoint from every foreign skeleton, the shard lies entirely inside or
// entirely outside each foreign face, so one point location per shard
// resolves it — and the innermost (smallest-Area2) containing face is the
// direct parent, exactly the monolithic nesting rule. Such a "courtyard"
// face gains the shard's outer walks and has its interior sample recast
// with them, which is the same computation the monolithic build runs.
//
// A multi-shard stitch is read-only: it holds what its readers (the
// query universe, the invariant, point location) read, and none of
// Insert's construction caches, so Insert refuses it as a parent.
func Stitch(ctx context.Context, sh *Sharded) (*Arrangement, error) {
	if len(sh.Subs) == 1 {
		// A single shard's sub-instance is the whole instance: its
		// arrangement already is the global one.
		return sh.Subs[0], nil
	}

	totV, totE, totH, totC := 0, 0, 0, 0
	reps := make([]geom.Pt, len(sh.Subs))
	boxes := make([]geom.Box, len(sh.Subs))
	for c, sub := range sh.Subs {
		totV += len(sub.Verts)
		totE += len(sub.Edges)
		totH += len(sub.Half)
		totC += len(sub.Comps)
		reps[c], boxes[c] = sub.Verts[0].P, sub.bbox
	}

	// Resolve each shard's global parent face: the innermost bounded
	// foreign face containing the shard, or the global exterior. One box
	// sweep finds, for each shard's representative, the shards whose
	// vertex boxes contain it; any vertex of the shard is a valid
	// representative (the whole shard is on one side of every foreign face
	// boundary).
	resolved := make([]int, len(sh.Subs)) // shard -> global parent face id
	// Global face index: every shard's bounded faces in shard order, the
	// exterior last (the cold build's convention). offsetsOf is the one
	// rule, shared with the provenance composition in StitchInc.
	o := offsetsOf(sh)
	exterior := o.exterior // the number of bounded faces
	for c, stabs := range geom.StabBoxes(reps, boxes) {
		if ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		p := reps[c]
		best, bestShard := -1, -1
		var bestArea rat.R
		for _, xi := range stabs {
			x := int(xi)
			if x == c {
				continue
			}
			sx := sh.Subs[x]
			loc := sx.Locate(p)
			if loc.Kind != LocFace {
				return nil, fmt.Errorf("arrange: stitch: shard %d representative %s lies on shard %d's skeleton", c, p, x)
			}
			if loc.Index == sx.Exterior {
				continue
			}
			if f := &sx.Faces[loc.Index]; best == -1 || f.Area2.Less(bestArea) {
				best, bestShard, bestArea = loc.Index, x, f.Area2
			}
		}
		if best == -1 {
			resolved[c] = exterior
		} else {
			resolved[c] = o.faceAt(sh, bestShard, best)
		}
	}

	// Assemble with per-shard offsets. Every cell is Exterior to every
	// foreign region, so a stitched label is its local entries with the
	// region indices mapped through the shard's members — an ascending map,
	// so the entries stay sorted — all copied into one backing array.
	n := len(sh.Names)
	totEnt, totFW, totSets, totMem := 0, 0, 1, 0
	for _, sub := range sh.Subs {
		totEnt += sub.labelEntries()
		for fi := range sub.Faces {
			totFW += len(sub.Faces[fi].Walks)
		}
		totSets += sub.Pool.Len() - 1
		totMem += sub.Pool.memberCount()
	}
	a := &Arrangement{
		Names:    sh.Names,
		Verts:    make([]Vertex, 0, totV),
		Edges:    make([]Edge, 0, totE),
		Half:     make([]HalfEdge, 0, totH),
		Faces:    make([]Face, 0, exterior+1),
		Comps:    make([]Component, 0, totC),
		Exterior: exterior,
		Pool:     &OwnerPool{sets: make([][]int32, 1, totSets)},
	}
	backing := make([]labelEnt, 0, totEnt)
	ownerMem := make([]int32, 0, totMem)
	// The index lists (rotations, face walks) are shifted copies, carved
	// from one backing array.
	ints := make([]int, 0, totH+totFW)
	shifted := func(src []int, off int) []int {
		start := len(ints)
		for _, x := range src {
			ints = append(ints, x+off)
		}
		return ints[start:len(ints):len(ints)]
	}

	vOff, eOff, hOff, cOff := 0, 0, 0, 0
	hostGained := make([]bool, exterior+1)
	var exteriorWalks []int
	// Root-walk attachments into host faces are deferred: a shard can
	// resolve into a face of a shard not yet assembled.
	type attach struct{ face, walk int }
	var attachments []attach
	for c, sub := range sh.Subs {
		if ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		members := sh.Plan.Members[c]
		scatter := func(l Label) Label {
			start := len(backing)
			for _, e := range l.ents {
				backing = append(backing, mkEnt(members[e.region()], e.sign()))
			}
			return Label{ents: backing[start:len(backing):len(backing)], n: n}
		}
		// The shard's owner sets, mapped through its members, are appended
		// to the global pool in handle order: shards partition the regions
		// and every sub's pool is canonical, so no two mapped sets are equal,
		// and appending numbers them exactly as interning would. Shard
		// handle h > 0 becomes ownerBase+h.
		ownerBase := Owners(a.Pool.Len() - 1)
		ownerMem = a.Pool.appendMapped(sub.Pool, members, ownerMem)

		for vi := range sub.Verts {
			v := &sub.Verts[vi]
			a.Verts = append(a.Verts, Vertex{P: v.P, Out: shifted(v.Out, hOff), Comp: v.Comp + cOff, Label: scatter(v.Label)})
		}
		for ei := range sub.Edges {
			e := &sub.Edges[ei]
			owners := e.Owners
			if owners != NoOwners {
				owners += ownerBase
			}
			a.Edges = append(a.Edges, Edge{
				V1: e.V1 + vOff, V2: e.V2 + vOff,
				Owners: owners,
				H1:     e.H1 + hOff, H2: e.H2 + hOff,
				Label: scatter(e.Label), Comp: e.Comp + cOff,
			})
		}
		for hi := range sub.Half {
			h := &sub.Half[hi]
			face := resolved[c]
			if h.Face != sub.Exterior {
				face = o.faceAt(sh, c, h.Face)
			}
			a.Half = append(a.Half, HalfEdge{
				Edge: h.Edge + eOff, Origin: h.Origin + vOff,
				Twin: h.Twin + hOff, Next: h.Next + hOff,
				Face: face,
			})
		}
		for fi := range sub.Faces {
			if fi == sub.Exterior {
				continue
			}
			f := &sub.Faces[fi]
			a.Faces = append(a.Faces, Face{
				Walks: shifted(f.Walks, hOff), Bounded: true, Comp: f.Comp + cOff,
				Label: scatter(f.Label), Sample: f.Sample, Area2: f.Area2,
			})
		}
		for ci := range sub.Comps {
			sc := &sub.Comps[ci]
			parent := resolved[c]
			if sc.ParentFace != sub.Exterior {
				parent = o.faceAt(sh, c, sc.ParentFace)
			} else if parent != exterior {
				hostGained[parent] = true
			}
			a.Comps = append(a.Comps, Component{
				OuterWalk:  sc.OuterWalk + hOff,
				ParentFace: parent,
				RootVertex: sc.RootVertex + vOff,
			})
			// Root components attach their outer walk to the resolved
			// parent — the stitched analogue of the nesting pass's walk
			// attachment. Non-root walks arrived with their face copy.
			if sc.ParentFace == sub.Exterior {
				if parent == exterior {
					exteriorWalks = append(exteriorWalks, sc.OuterWalk+hOff)
				} else {
					attachments = append(attachments, attach{parent, sc.OuterWalk + hOff})
				}
			}
		}
		if c == 0 {
			a.bbox = sub.bbox
		} else {
			a.bbox = a.bbox.Union(sub.bbox)
		}
		vOff += len(sub.Verts)
		eOff += len(sub.Edges)
		hOff += len(sub.Half)
		cOff += len(sub.Comps)
	}

	for _, at := range attachments {
		a.Faces[at.face].Walks = append(a.Faces[at.face].Walks, at.walk)
	}

	// The global exterior face: every shard resolved to the outside
	// contributes its root walks; its label has no entries; the sample sits
	// past the global box like the cold build's.
	a.Faces = append(a.Faces, Face{
		Walks: exteriorWalks, Bounded: false, Comp: -1,
		Label:  Label{n: n},
		Sample: geom.Pt{X: a.bbox.MaxX.Add(rat.One), Y: a.bbox.MaxY.Add(rat.One)},
	})

	// Courtyard faces that gained foreign walks recast their sample over
	// the full walk set — the identical computation (and result) as the
	// monolithic sampling pass, which also runs after walk attachment.
	for fi, gained := range hostGained {
		if !gained {
			continue
		}
		if ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		f := &a.Faces[fi]
		sample, err := a.samplePastHalfEdge(f.Walks[0], a.bbox, f.Walks)
		if err != nil {
			return nil, fmt.Errorf("arrange: stitch: face %d: %w", fi, err)
		}
		f.Sample = sample
	}
	return a, nil
}

// labelEntries returns the number of label entries over all cells.
func (a *Arrangement) labelEntries() int {
	n := 0
	for vi := range a.Verts {
		n += len(a.Verts[vi].Label.ents)
	}
	for ei := range a.Edges {
		n += len(a.Edges[ei].Label.ents)
	}
	for fi := range a.Faces {
		n += len(a.Faces[fi].Label.ents)
	}
	return n
}
