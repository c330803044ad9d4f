package folang

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
)

// Fingerprint returns a canonical digest of the universe. Cells are
// identified by exact geometry (vertex coordinates, edge endpoint pairs,
// face boundary edge sets) rather than array position, so two universes of
// the same instance — one built cold, one derived via InsertUniverse, one
// stitched from shards — have equal fingerprints exactly when their cells,
// labels, closures and region extents agree. It is a test and debugging
// helper: cost is O(cells × key length) plus sorting, far above query cost.
func (u *Universe) Fingerprint() string {
	a, t := u.A, u.tables()
	vkey := make([]string, u.nv)
	for vi := range a.Verts {
		vkey[vi] = "v" + a.Verts[vi].P.Key()
	}
	ekey := make([]string, u.ne)
	for ei := range a.Edges {
		k1, k2 := vkey[a.Edges[ei].V1], vkey[a.Edges[ei].V2]
		if k2 < k1 {
			k1, k2 = k2, k1
		}
		ekey[ei] = "e(" + k1 + "," + k2 + ")"
	}
	fkey := make([]string, u.nf)
	for fi := 0; fi < u.nf; fi++ {
		var bound []string
		for _, c := range t.cloList[t.cloOff[fi]:t.cloOff[fi+1]] {
			if int(c) >= u.nf && int(c) < u.nf+u.ne {
				bound = append(bound, ekey[int(c)-u.nf])
			}
		}
		sort.Strings(bound)
		tag := "f["
		if fi == a.Exterior {
			tag = "f0["
		}
		fkey[fi] = tag + strings.Join(bound, "") + "]"
	}
	ckey := func(c int) string {
		switch {
		case c < u.nf:
			return fkey[c]
		case c < u.nf+u.ne:
			return ekey[c-u.nf]
		default:
			return vkey[c-u.nf-u.ne]
		}
	}

	lines := make([]string, 0, 2*u.NumCells())
	for fi := range a.Faces {
		lines = append(lines, "F "+fkey[fi]+" "+a.Faces[fi].Label.Key())
	}
	for ei := range a.Edges {
		lines = append(lines, "E "+ekey[ei]+" "+a.Edges[ei].Label.Key())
	}
	for vi := range a.Verts {
		lines = append(lines, "V "+vkey[vi]+" "+a.Verts[vi].Label.Key())
	}
	for c := 0; c < u.NumCells(); c++ {
		mem := make([]string, 0, t.cloOff[c+1]-t.cloOff[c])
		for _, d := range t.cloList[t.cloOff[c]:t.cloOff[c+1]] {
			mem = append(mem, ckey(int(d)))
		}
		sort.Strings(mem)
		lines = append(lines, "C "+ckey(c)+" : "+strings.Join(mem, " "))
	}
	sort.Strings(lines)
	h := fnv.New128a()
	for _, ln := range lines {
		h.Write([]byte(ln))
		h.Write([]byte{'\n'})
	}
	// Region extents in name order (names are part of the digest).
	for ri, name := range a.Names {
		var mem []string
		for _, c := range u.regionRow(ri) {
			mem = append(mem, ckey(int(c)))
		}
		sort.Strings(mem)
		fmt.Fprintf(h, "R %s : %s\n", name, strings.Join(mem, " "))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
