package invariant

import (
	"context"
	"fmt"
	"sort"

	"topodb/internal/arrange"
)

// FromArrangementDelta derives the invariant of an incrementally derived
// arrangement, reusing the parent invariant's canonical work for
// components the delta provably did not disturb.
//
// The cell structure (chains, rotation lists, faces, nesting) is always
// rebuilt — it is one linear pass — but canonicalization is not linear:
// each component's encoding is minimized over all its edge-ends. For a
// component the arrangement's provenance marks structurally untouched,
// whose added-region signs are uniform across all its cells, and whose
// nested children are themselves reusable, the parent's recorded
// minimizing start is transported onto the new component and the
// minimization skipped (see encodeComp for why the transported start stays
// minimal). Everything else — delta-local components, components whose
// nesting or ownership shifted, vertex-free curves — is canonicalized from
// scratch, so the resulting encoding is byte-identical to the cold path's
// in all cases.
//
// Fallback discipline matches arrange.Insert: the call fails — and the
// caller should recompute cold — when the arrangement carries no
// provenance or derives from a different generation than parent. A parent
// that was never canonicalized has no recorded starts; the derivation
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
	// A non-identity remap permutes label columns, which can reorder the
	// minimization's comparisons; only the identity remap (added names sort
	// last, so every old label is a prefix of the new one) is seedable.
	if p.Identity {
		t.seedStarts(parent, p)
	}
	return t, nil
}

// seedStarts transports the parent's recorded minimizing starts onto t's
// reusable components. t is unpublished (no lock needed on its fields);
// the parent's recorded starts are read under its canonMu.
func (t *T) seedStarts(parent *T, p *arrange.Provenance) {
	if len(p.CompParent) != len(t.Comps) || len(p.VertParent) != len(t.src.Verts) ||
		len(p.FaceParent) != len(t.Faces) {
		return
	}
	reusable := t.reusableComps(parent, p)

	// Forward vertex image: parent arrangement vertex -> new arrangement
	// vertex, then into t's vertex numbering.
	vertImg := make([]int32, len(parent.src.Verts))
	for i := range vertImg {
		vertImg[i] = -1
	}
	for cv, pv := range p.VertParent {
		if pv >= 0 {
			vertImg[pv] = int32(cv)
		}
	}
	tvOf := make([]int32, len(t.src.Verts))
	for i := range tvOf {
		tvOf[i] = -1
	}
	for tvi, av := range t.aVert {
		tvOf[av] = int32(tvi)
	}

	parent.canonMu.Lock()
	defer parent.canonMu.Unlock()
	for idx := 0; idx < 2; idx++ {
		pb := parent.bestStart[idx]
		if pb == nil {
			continue // parent never canonicalized under this chirality
		}
		seeds := make([]canonStart, len(t.Comps))
		any := false
		for ci := range t.Comps {
			pci := p.CompParent[ci]
			if pci < 0 || int(pci) >= len(pb) || !reusable[ci] || !pb[pci].ok {
				continue
			}
			ps := pb[pci]
			if int(ps.vert) >= len(parent.aVert) {
				continue
			}
			cav := vertImg[parent.aVert[ps.vert]]
			if cav < 0 {
				continue
			}
			cv := tvOf[cav]
			if cv < 0 || t.Verts[cv].Comp != ci || int(ps.k) >= len(t.Verts[cv].Rot) {
				continue
			}
			seeds[ci] = canonStart{vert: cv, k: ps.k, ok: true}
			any = true
		}
		if any {
			t.seeds[idx] = seeds
		}
	}
}

// reusableComps decides, per component, whether the parent's canonical
// start may be transported. A component qualifies when:
//
//   - provenance marks it structurally identical to a parent component
//     (same vertices, edges and rotation orders);
//   - the added regions' signs are uniform across every one of its cells —
//     vertices, edges and owned faces — so every label key the encoding
//     emits widens by the same suffix, preserving all comparisons
//     (non-uniform signs arise when a delta ring runs along the
//     component's edges or cuts its faces, either of which can reorder the
//     minimization);
//   - its owned faces map to the parent component's faces one-to-one, and
//     the components nested in them correspond under provenance with every
//     child itself reusable — a reusable face is untouched by the delta
//     rings, so everything inside it shares its added-region signs and the
//     children's sorted encodings keep their order.
func (t *T) reusableComps(parent *T, p *arrange.Provenance) []bool {
	w := len(parent.Names)
	n := len(t.Comps)
	reusable := make([]bool, n)

	facesByComp := make([][]int, n)
	for fi := range t.Faces {
		if c := t.Faces[fi].Comp; c >= 0 && c < n {
			facesByComp[c] = append(facesByComp[c], fi)
		}
	}
	pFaceCount := make([]int, len(parent.Comps))
	for fi := range parent.Faces {
		if c := parent.Faces[fi].Comp; c >= 0 && c < len(pFaceCount) {
			pFaceCount[c]++
		}
	}
	// Children first (depth descending), so the components nested inside a
	// face are decided before the component that owns the face.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return t.Comps[order[i]].Depth > t.Comps[order[j]].Depth
	})

	for _, ci := range order {
		pci := int(p.CompParent[ci])
		if pci < 0 || pci >= len(parent.Comps) {
			continue
		}
		c := &t.Comps[ci]
		ok := true
		// The added-column suffix — entries at index >= w — must be the same
		// on every cell; ref holds the first cell's.
		type colSign struct {
			ri int
			s  arrange.Sign
		}
		var ref []colSign
		seen := false
		check := func(l arrange.Label) {
			if !ok {
				return
			}
			if l.Len() < w {
				ok = false
				return
			}
			k := 0
			for e := 0; e < l.NumEntries(); e++ {
				ri, s := l.Entry(e)
				if ri < w {
					continue
				}
				if !seen {
					ref = append(ref, colSign{ri, s})
					continue
				}
				if k >= len(ref) || ref[k] != (colSign{ri, s}) {
					ok = false
					return
				}
				k++
			}
			if seen && k != len(ref) {
				ok = false
			}
			seen = true
		}
		for _, vi := range c.Verts {
			check(t.Verts[vi].Label)
		}
		for _, ei := range c.Edges {
			check(t.Edges[ei].Label)
		}
		for _, fi := range facesByComp[ci] {
			check(t.Faces[fi].Label)
		}
		if !ok || len(facesByComp[ci]) != pFaceCount[pci] {
			continue
		}
		for _, fi := range facesByComp[ci] {
			pfi := int(p.FaceParent[fi])
			if pfi < 0 || pfi >= len(parent.Faces) || parent.Faces[pfi].Comp != pci {
				ok = false
				break
			}
			kids, pkids := t.Faces[fi].Children, parent.Faces[pfi].Children
			if len(kids) != len(pkids) {
				ok = false
				break
			}
			if len(pkids) == 0 {
				continue
			}
			pset := make(map[int]bool, len(pkids))
			for _, k := range pkids {
				pset[k] = true
			}
			for _, ch := range kids {
				pch := int(p.CompParent[ch])
				if pch < 0 || !reusable[ch] || !pset[pch] {
					ok = false
					break
				}
			}
			if !ok {
				break
			}
		}
		reusable[ci] = ok
	}
	return reusable
}
