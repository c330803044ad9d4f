package invariant

import (
	"context"
	"fmt"

	"topodb/internal/arrange"
)

// FromArrangementDelta derives the invariant of an incrementally derived
// arrangement, reusing the parent invariant's per-component canonical
// encodings for components the delta provably did not disturb.
//
// The cell structure (chains, rotation lists, faces, nesting) is always
// rebuilt — it is one linear pass. A component's canonical encoding
// depends only on its rotation system, its cells' labels — rendered by
// region name, so any remap of region indices leaves it alone — and the
// encodings nested in its faces. So a component the arrangement's
// provenance marks structurally untouched, none of whose cells gained an
// entry for an added region, and whose nested components are themselves
// reused, takes the parent's encoding string as is (see reusableComps).
// Everything else — delta-local components, components an added region
// reaches or whose faces gained or lost a nested component — is encoded
// cold, so the resulting encoding is byte-identical to the cold path's in
// all cases.
//
// Fallback discipline matches arrange.Insert: the call fails — and the
// caller should recompute cold — when the arrangement carries no
// provenance or derives from a different generation than parent. A parent
// that was never canonicalized has no encodings to reuse; the derivation
// still succeeds and simply canonicalizes cold on first use.
func FromArrangementDelta(ctx context.Context, a *arrange.Arrangement, parent *T) (*T, error) {
	p := a.Prov()
	if parent == nil || p == nil || parent.src == nil || p.Parent != parent.src {
		return nil, fmt.Errorf("invariant: FromArrangementDelta: arrangement was not derived from the parent invariant's arrangement")
	}
	t, err := FromArrangementCtx(ctx, a)
	if err != nil {
		return nil, err
	}
	if len(p.CompParent) != len(t.Comps) || len(p.FaceParent) != len(t.Faces) {
		return t, nil
	}
	reuse := t.reusableComps(parent, p)
	// t is unpublished (no lock needed on its fields); the parent's
	// encodings are read under its canonMu.
	parent.canonMu.Lock()
	defer parent.canonMu.Unlock()
	for idx, penc := range parent.comps {
		if penc == nil {
			continue // parent never canonicalized
		}
		enc := make([]string, len(t.Comps))
		for ci, pci := range reuse {
			if pci >= 0 {
				enc[ci] = penc[pci]
			}
		}
		t.comps[idx] = enc
	}
	return t, nil
}

// reusableComps maps each component of t whose canonical encoding equals
// its parent component's to that parent component, and every other
// component to -1. A component qualifies when:
//
//   - provenance maps it to a structurally identical parent component
//     (same vertices, edges and rotation orders);
//   - none of its vertices, edges or owned faces has an entry for an
//     added region, so — provenance preserving every old region's sign —
//     each of its labels renders exactly as the parent cell's did;
//   - its owned faces map one-to-one through provenance onto the parent
//     component's faces;
//   - every component nested in one of those faces maps to a component
//     nested in the corresponding parent face and is itself reused, so
//     each face payload's sorted children are the parent's.
func (t *T) reusableComps(parent *T, p *arrange.Provenance) []int32 {
	// added[ri]: t's region ri is absent from the parent (both name lists
	// are sorted).
	added := make([]bool, len(t.Names))
	j := 0
	for ri, name := range t.Names {
		for j < len(parent.Names) && parent.Names[j] < name {
			j++
		}
		added[ri] = j == len(parent.Names) || parent.Names[j] != name
	}
	clean := func(l arrange.Label) bool {
		for k := 0; k < l.NumEntries(); k++ {
			if ri, _ := l.Entry(k); added[ri] {
				return false
			}
		}
		return true
	}

	n := len(t.Comps)
	faces := make([][]int, n)
	for fi := range t.Faces {
		if c := t.Faces[fi].Comp; c >= 0 {
			faces[c] = append(faces[c], fi)
		}
	}
	pFaces := make([]int, len(parent.Comps))
	for fi := range parent.Faces {
		if c := parent.Faces[fi].Comp; c >= 0 {
			pFaces[c]++
		}
	}
	reuse := make([]int32, n)
	for ci := range reuse {
		reuse[ci] = -1
	}
	// Nested components first, so a face's children are decided before
	// the component that owns the face.
	for _, ci := range t.bottomUp() {
		pci := p.CompParent[ci]
		if pci < 0 || int(pci) >= len(parent.Comps) || len(faces[ci]) != pFaces[pci] {
			continue
		}
		c := &t.Comps[ci]
		ok := true
		for _, vi := range c.Verts {
			ok = ok && clean(t.Verts[vi].Label)
		}
		for _, ei := range c.Edges {
			ok = ok && clean(t.Edges[ei].Label)
		}
		for _, fi := range faces[ci] {
			pfi := int(p.FaceParent[fi])
			kids := t.Faces[fi].Children
			ok = ok && pfi >= 0 && pfi < len(parent.Faces) && parent.Faces[pfi].Comp == int(pci) &&
				clean(t.Faces[fi].Label) && len(kids) == len(parent.Faces[pfi].Children)
			// CompParent is injective, so with equal counts this matches the
			// children one-to-one.
			for _, ch := range kids {
				ok = ok && reuse[ch] >= 0 && parent.Comps[reuse[ch]].ParentFace == pfi
			}
		}
		if ok {
			reuse[ci] = pci
		}
	}
	return reuse
}
