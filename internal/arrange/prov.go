package arrange

import "context"

// Provenance links a derived arrangement to the parent generation's
// arrangement it came from, cell by cell. It is the export of the delta
// structure Insert (and, composed across shards, InsertSharded + Stitch)
// already tracks internally, so the artifacts derived *from* the
// arrangement — the query universe, the topological invariant — can
// themselves be maintained incrementally instead of recomputing from
// scratch.
//
// The face map is injective and label-preserving: a new face mapped to a
// parent face carries exactly the parent face's sign for every
// pre-existing region (at that region's new index — map parent region
// names with RegionIndex; added regions are not constrained). -1 marks a
// cell the delta created or reshaped — consumers must recompute whatever
// they need for it.
//
// CompParent asserts *structural* identity: a new component mapped to a
// parent component has the same vertices (points and labels), edges and
// rotation orders, because the delta never touched it. Its nesting — and
// the islands nested inside its faces — may still have changed; consumers
// that care (the invariant's canonical-row reuse) check those separately.
type Provenance struct {
	Parent *Arrangement

	FaceParent []int32 // new face -> parent face with equal old signs, or -1
	CompParent []int32 // new comp -> structurally identical parent comp, or -1
}

// Prov returns the arrangement's delta provenance, or nil when it was
// built cold (or the provenance was released by the owning cache).
func (a *Arrangement) Prov() *Provenance { return a.prov.Load() }

// ClearProv releases the provenance record, unpinning the parent
// arrangement. Caches call it once a generation becomes a parent itself,
// so provenance chains never retain more than one superseded generation;
// in-flight consumers that already loaded the pointer are unaffected.
func (a *Arrangement) ClearProv() { a.prov.Store(nil) }

// recordProvenance publishes the inserter's delta tracking as the derived
// arrangement's provenance: cleanFaceOf maps every cleanly surviving face,
// and the exterior face — whose old signs are copied from the parent
// exterior — maps to it.
func (s *inserter) recordProvenance() {
	b, parent := s.b, s.parent
	fp := make([]int32, len(b.Faces))
	for fi, pf := range s.cleanFaceOf {
		fp[fi] = int32(pf)
	}
	fp[b.Exterior] = int32(parent.Exterior)
	b.prov.Store(&Provenance{
		Parent:     parent,
		FaceParent: fp,
		CompParent: s.compParent,
	})
}

// stitchOffsets is Stitch's deterministic per-shard cell numbering for one
// generation's sharded artifact — Stitch itself numbers faces by it — so
// provenance can be composed across generations without re-running the
// stitch.
type stitchOffsets struct {
	cOff, fOff []int
	totE, totC int
	exterior   int // global exterior face index
	single     bool
}

func offsetsOf(sh *Sharded) stitchOffsets {
	n := len(sh.Subs)
	o := stitchOffsets{cOff: make([]int, n), fOff: make([]int, n)}
	if n == 1 {
		sub := sh.Subs[0]
		o.single = true
		o.totE, o.totC = len(sub.Edges), len(sub.Comps)
		o.exterior = sub.Exterior
		return o
	}
	e, c, f := 0, 0, 0
	for i, sub := range sh.Subs {
		o.cOff[i], o.fOff[i] = c, f
		e += len(sub.Edges)
		c += len(sub.Comps)
		f += len(sub.Faces) - 1
	}
	o.totE, o.totC = e, c
	o.exterior = f
	return o
}

// faceAt maps shard c's bounded local face fi to its global index — the
// same arithmetic Stitch uses (sub exteriors are skipped; the single-shard
// stitch is the sub itself).
func (o *stitchOffsets) faceAt(sh *Sharded, c, fi int) int {
	if o.single {
		return fi
	}
	if fi > sh.Subs[c].Exterior {
		return o.fOff[c] + fi - 1
	}
	return o.fOff[c] + fi
}

// StitchInc is Stitch with delta provenance: when the sharded artifact was
// derived by InsertSharded from parentSh — whose own stitched arrangement
// is parentStitched — the per-shard provenance (pointer-aliased shards map
// wholesale by offset shift; changed shards compose their sub-derivation's
// provenance) is composed into a global Provenance against parentStitched
// and attached to the result. Shards with no usable link simply leave
// their cells unmapped; when nothing links, the result carries no
// provenance at all and is exactly Stitch's.
func StitchInc(ctx context.Context, sh, parentSh *Sharded, parentStitched *Arrangement) (*Arrangement, error) {
	a, err := Stitch(ctx, sh)
	if err != nil || parentSh == nil || parentStitched == nil {
		return a, err
	}
	if p := composeStitchProv(a, sh, parentSh, parentStitched); p != nil {
		a.prov.Store(p)
	}
	return a, nil
}

// composeStitchProv builds the global provenance of a stitched arrangement
// from its shards' links to the parent generation, or nil when no shard
// links. Cross-shard label preservation rests on the shard invariant:
// distinct shards' skeletons live in disjoint closed box unions, so a cell
// surviving from a parent shard is Exterior — in both generations — to
// every pre-existing region of every other parent shard, including ones
// merged into its own shard this generation.
func composeStitchProv(a *Arrangement, sh, parentSh *Sharded, parentStitched *Arrangement) *Provenance {
	if len(sh.Subs) == 1 && len(parentSh.Subs) == 1 {
		// Both stitches are their only sub-arrangement, so the composition
		// would copy the sub's own Insert provenance.
		if sp := a.Prov(); sp != nil && sp.Parent == parentStitched {
			return sp
		}
		return nil
	}
	// Every parent region must survive: one merge over the two sorted name
	// lists, so the stitch's name map stays unbuilt.
	j := 0
	for _, n := range sh.Names {
		if j < len(parentSh.Names) && parentSh.Names[j] == n {
			j++
		}
	}
	if j < len(parentSh.Names) {
		return nil
	}
	po := offsetsOf(parentSh)
	// Guard against a parentStitched that is not the stitch of parentSh.
	if po.totE != len(parentStitched.Edges) || po.totC != len(parentStitched.Comps) ||
		po.exterior != parentStitched.Exterior {
		return nil
	}
	co := offsetsOf(sh)
	bySub := make(map[*Arrangement]int, len(parentSh.Subs))
	for pc, sub := range parentSh.Subs {
		bySub[sub] = pc
	}

	neg := func(n int) []int32 {
		m := make([]int32, n)
		for i := range m {
			m[i] = -1
		}
		return m
	}
	fp, cp := neg(len(a.Faces)), neg(len(a.Comps))

	mapped := false
	for c, sub := range sh.Subs {
		if pc, ok := bySub[sub]; ok {
			// Aliased shard: every cell survives verbatim at shifted offsets.
			for lc := range sub.Comps {
				cp[co.cOff[c]+lc] = int32(po.cOff[pc] + lc)
			}
			for lf := range sub.Faces {
				if lf == sub.Exterior {
					continue
				}
				fp[co.faceAt(sh, c, lf)] = int32(po.faceAt(parentSh, pc, lf))
			}
			mapped = true
			continue
		}
		sp := sub.Prov()
		if sp == nil {
			continue // rebuilt cold: cells stay unmapped
		}
		pc, ok := bySub[sp.Parent]
		if !ok {
			continue
		}
		// Changed shard derived by Insert into parent shard pc: compose the
		// sub-derivation's cell maps with both generations' offsets.
		for lf, plf := range sp.FaceParent {
			if plf < 0 || lf == sub.Exterior || int(plf) == sp.Parent.Exterior {
				continue // the exterior is mapped globally below
			}
			fp[co.faceAt(sh, c, lf)] = int32(po.faceAt(parentSh, pc, int(plf)))
		}
		for lc, plc := range sp.CompParent {
			if plc >= 0 {
				cp[co.cOff[c]+lc] = int32(po.cOff[pc] + int(plc))
			}
		}
		mapped = true
	}
	if !mapped {
		return nil
	}
	fp[a.Exterior] = int32(parentStitched.Exterior)
	return &Provenance{
		Parent:     parentStitched,
		FaceParent: fp,
		CompParent: cp,
	}
}
