// Package thematic implements the paper's thematic mapping (§3): the
// relational schema Th and the translation of a topological invariant into
// a classical relational instance, plus the integrity check that a given
// relational instance is a valid invariant (Theorem 3.8: the labeled
// planar graph conditions (1)–(7)).
//
// Schema Th (paper) — cell identifiers are "v<i>", "e<i>", "f<i>":
//
//	Regions(name)            region names
//	Vertices(v)              0-cells
//	Edges(e)                 1-cells
//	Faces(f)                 2-cells
//	ExteriorFace(f)          the distinguished unbounded face f0
//	Endpoints(e, v1, v2)     edge endpoints (loops have v1 = v2; closed
//	                         curves — the degenerate no-vertex case the
//	                         paper permits — have no Endpoints row)
//	FaceEdges(f, e)          edges on a face's boundary
//	RegionFaces(name, f)     faces contained in a region
//	Orientation(dir, v, e1, e2)  consecutive edges around v, dir ∈ {cw, ccw}
//
// Augmentation (this package, in the PLA-augmentation spirit the paper
// describes): CellLabels(cell, name, sign) with sign ∈ {o, b, -} records
// the full sign class of every cell, and Nesting(comp-root-face, face)
// records the embedded-in forest for disconnected instances.
package thematic

import (
	"fmt"

	"topodb/internal/arrange"
	"topodb/internal/invariant"
	"topodb/internal/reldb"
	"topodb/internal/spatial"
)

// CW and CCW are the two orientation directions.
const (
	CW  = "cw"
	CCW = "ccw"
)

func vid(i int) string { return fmt.Sprintf("v%d", i) }
func eid(i int) string { return fmt.Sprintf("e%d", i) }
func fid(i int) string { return fmt.Sprintf("f%d", i) }

// FromInvariant builds the relational instance thematic(I) from the
// invariant T_I.
func FromInvariant(t *invariant.T) *reldb.DB {
	db := reldb.NewDB()
	regions := reldb.NewRelation("Regions", 1)
	verts := reldb.NewRelation("Vertices", 1)
	edges := reldb.NewRelation("Edges", 1)
	faces := reldb.NewRelation("Faces", 1)
	extf := reldb.NewRelation("ExteriorFace", 1)
	endpoints := reldb.NewRelation("Endpoints", 3)
	faceEdges := reldb.NewRelation("FaceEdges", 2)
	regionFaces := reldb.NewRelation("RegionFaces", 2)
	orient := reldb.NewRelation("Orientation", 4)
	labels := reldb.NewRelation("CellLabels", 3)
	nesting := reldb.NewRelation("Nesting", 2)

	for _, n := range t.Names {
		regions.MustInsert(n)
	}
	addLabels := func(cell string, l arrange.Label) {
		for i := 0; i < l.Len(); i++ {
			labels.MustInsert(cell, t.Names[i], l.At(i).String())
		}
	}
	for i, v := range t.Verts {
		verts.MustInsert(vid(i))
		addLabels(vid(i), v.Label)
	}
	for i, e := range t.Edges {
		edges.MustInsert(eid(i))
		if !e.IsClosed() {
			endpoints.MustInsert(eid(i), vid(e.V1), vid(e.V2))
		}
		addLabels(eid(i), e.Label)
	}
	for i, f := range t.Faces {
		faces.MustInsert(fid(i))
		addLabels(fid(i), f.Label)
		for _, e := range f.Edges {
			faceEdges.MustInsert(fid(i), eid(e))
		}
		for k := 0; k < f.Label.NumEntries(); k++ {
			if ri, s := f.Label.Entry(k); s == arrange.Interior {
				regionFaces.MustInsert(t.Names[ri], fid(i))
			}
		}
	}
	extf.MustInsert(fid(t.Exterior))
	// Orientation: consecutive edge pairs around each vertex, both
	// directions (the rotation lists are counterclockwise).
	for i, v := range t.Verts {
		n := len(v.Rot)
		for k := 0; k < n; k++ {
			e1 := v.Rot[k].Edge
			e2 := v.Rot[(k+1)%n].Edge
			orient.MustInsert(CCW, vid(i), eid(e1), eid(e2))
			orient.MustInsert(CW, vid(i), eid(e2), eid(e1))
		}
	}
	// Nesting: each component is represented by its parent face and the
	// set of its own faces.
	for ci := range t.Comps {
		parent := fid(t.Comps[ci].ParentFace)
		for fi, f := range t.Faces {
			if f.Comp == ci {
				nesting.MustInsert(parent, fid(fi))
			}
		}
	}

	for _, r := range []*reldb.Relation{
		regions, verts, edges, faces, extf, endpoints,
		faceEdges, regionFaces, orient, labels, nesting,
	} {
		db.Add(r)
	}
	return db
}

// FromInstance computes thematic(I) directly from a spatial instance
// (Corollary 3.7(i)).
func FromInstance(in *spatial.Instance) (*reldb.DB, error) {
	t, err := invariant.New(in)
	if err != nil {
		return nil, err
	}
	return FromInvariant(t), nil
}
