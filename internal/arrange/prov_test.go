package arrange

import (
	"context"
	"math/rand"
	"testing"

	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// validateProvenance checks every claim the provenance makes against the
// two arrangements it relates: remap validity, per-cell geometry and
// label preservation, injectivity, and structural identity of adopted
// components.
func validateProvenance(t *testing.T, a, parent *Arrangement, p *Provenance) {
	t.Helper()
	if p.Parent != parent {
		t.Fatal("provenance points at the wrong parent")
	}
	if len(p.Remap) != len(parent.Names) {
		t.Fatalf("remap has %d entries for %d parent names", len(p.Remap), len(parent.Names))
	}
	identity := true
	for pri, name := range parent.Names {
		ri := p.Remap[pri]
		if ri < 0 || ri >= len(a.Names) || a.Names[ri] != name {
			t.Fatalf("remap[%d]=%d does not map %q onto itself", pri, ri, name)
		}
		if ri != pri {
			identity = false
		}
	}
	if p.Identity != identity {
		t.Fatalf("Identity=%v but remap identity=%v", p.Identity, identity)
	}
	// sameLabel: the new cell's label at remapped columns must equal the
	// parent cell's label (added columns are unconstrained here; universe
	// derivation fixes them up from its own scans).
	sameLabel := func(nl, pl Label) bool {
		for pri := 0; pri < pl.Len(); pri++ {
			if nl.At(p.Remap[pri]) != pl.At(pri) {
				return false
			}
		}
		return true
	}
	if len(p.VertParent) != len(a.Verts) {
		t.Fatalf("VertParent has %d entries for %d verts", len(p.VertParent), len(a.Verts))
	}
	seenV := make(map[int32]int)
	for vi, pv := range p.VertParent {
		if pv < 0 {
			continue
		}
		if prev, dup := seenV[pv]; dup {
			t.Fatalf("verts %d and %d both claim parent vert %d", prev, vi, pv)
		}
		seenV[pv] = vi
		if !a.Verts[vi].P.Equal(parent.Verts[pv].P) {
			t.Fatalf("vert %d moved relative to parent vert %d", vi, pv)
		}
		if !sameLabel(a.Verts[vi].Label, parent.Verts[pv].Label) {
			t.Fatalf("vert %d label diverged from parent vert %d", vi, pv)
		}
	}
	if len(p.EdgeParent) != len(a.Edges) {
		t.Fatalf("EdgeParent has %d entries for %d edges", len(p.EdgeParent), len(a.Edges))
	}
	for ei, pe := range p.EdgeParent {
		if pe < 0 {
			continue
		}
		if !sameLabel(a.Edges[ei].Label, parent.Edges[pe].Label) {
			t.Fatalf("edge %d label diverged from parent edge %d", ei, pe)
		}
	}
	if len(p.FaceParent) != len(a.Faces) {
		t.Fatalf("FaceParent has %d entries for %d faces", len(p.FaceParent), len(a.Faces))
	}
	if p.FaceParent[a.Exterior] != int32(parent.Exterior) {
		t.Fatalf("exterior face maps to %d, want parent exterior %d",
			p.FaceParent[a.Exterior], parent.Exterior)
	}
	seenF := make(map[int32]int)
	for fi, pf := range p.FaceParent {
		if pf < 0 {
			continue
		}
		if prev, dup := seenF[pf]; dup {
			t.Fatalf("faces %d and %d both claim parent face %d", prev, fi, pf)
		}
		seenF[pf] = fi
		if !sameLabel(a.Faces[fi].Label, parent.Faces[pf].Label) {
			t.Fatalf("face %d label diverged from parent face %d", fi, pf)
		}
	}
	if len(p.CompParent) != len(a.Comps) {
		t.Fatalf("CompParent has %d entries for %d comps", len(p.CompParent), len(a.Comps))
	}
	for ci, pc := range p.CompParent {
		if pc < 0 {
			continue
		}
		c, pcc := &a.Comps[ci], &parent.Comps[pc]
		if len(c.Verts) != len(pcc.Verts) || len(c.Edges) != len(pcc.Edges) {
			t.Fatalf("comp %d claims structural identity with parent comp %d but sizes differ", ci, pc)
		}
		// The comp's vertex set must map exactly onto the parent comp's.
		pset := make(map[int32]bool, len(pcc.Verts))
		for _, pv := range pcc.Verts {
			pset[int32(pv)] = true
		}
		for _, vi := range c.Verts {
			if !pset[p.VertParent[vi]] {
				t.Fatalf("comp %d vert %d does not map into parent comp %d's vertex set", ci, vi, pc)
			}
		}
	}
}

// Property: every Insert exports provenance whose claims hold cell by
// cell, across chained incremental generations.
func TestInsertProvenanceSound(t *testing.T) {
	ctx := context.Background()
	for name, in := range map[string]*spatial.Instance{
		"overlap_chain":  workload.OverlapChain(10),
		"nested_rings":   workload.NestedRings(7),
		"county_mesh":    workload.CountyMesh(3),
		"sparse_scatter": workload.SparseScatter(40),
	} {
		t.Run(name, func(t *testing.T) {
			names := in.Names()
			for trial := 0; trial < 2; trial++ {
				rng := rand.New(rand.NewSource(int64(len(name)*10 + trial)))
				order := append([]string(nil), names...)
				if trial == 1 {
					for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
						order[i], order[j] = order[j], order[i]
					}
				}
				k := 1
				cur, err := Build(subInstance(in, order[:k]))
				if err != nil {
					t.Fatal(err)
				}
				for k < len(order) {
					batch := 1 + rng.Intn(3)
					if k+batch > len(order) {
						batch = len(order) - k
					}
					added := order[k : k+batch]
					k += batch
					sub := subInstance(in, order[:k])
					next, err := Insert(ctx, cur, sub, added...)
					if err != nil {
						t.Fatalf("insert %v: %v", added, err)
					}
					p := next.Prov()
					if p == nil {
						t.Fatal("Insert exported no provenance")
					}
					validateProvenance(t, next, cur, p)
					next.ClearProv()
					if next.Prov() != nil {
						t.Fatal("ClearProv left provenance attached")
					}
					cur = next
				}
			}
		})
	}
}

// StitchInc must produce the same arrangement as Stitch and attach
// provenance relating it to the parent's stitched arrangement whenever
// every changed shard carries sub-provenance.
func TestStitchIncMatchesStitch(t *testing.T) {
	ctx := context.Background()
	for name, in := range map[string]*spatial.Instance{
		"county_mesh":    workload.CountyMesh(4),
		"sparse_scatter": workload.SparseScatter(60),
	} {
		t.Run(name, func(t *testing.T) {
			names := in.Names()
			k := len(names) - 2
			parentIn := subInstance(in, names[:k])
			parentSh, err := BuildSharded(ctx, parentIn)
			if err != nil {
				t.Fatal(err)
			}
			parentStitched, err := Stitch(ctx, parentSh)
			if err != nil {
				t.Fatal(err)
			}
			childSh, err := InsertSharded(ctx, parentSh, in, names[k:]...)
			if err != nil {
				t.Fatal(err)
			}
			inc, err := StitchInc(ctx, childSh, parentSh, parentStitched)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Stitch(ctx, childSh)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := cellFingerprint(inc), cellFingerprint(cold); got != want {
				t.Fatal("StitchInc diverged from Stitch")
			}
			p := inc.Prov()
			if p == nil {
				t.Skip("no composite provenance (a changed shard lacked sub-provenance)")
			}
			validateProvenance(t, inc, parentStitched, p)
		})
	}
}
