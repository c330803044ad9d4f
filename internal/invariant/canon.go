package invariant

import (
	"bytes"
	"slices"
	"sort"
	"strconv"

	"topodb/internal/arrange"
)

// This file implements the canonical form used to decide isomorphism of
// invariants — and hence, by Theorem 3.4, topological equivalence of
// instances. The encoding is a deterministic traversal of each component's
// rotation system, minimized over all starting edge-ends; nested components
// are encoded bottom-up into the faces that contain them; and the whole
// instance is minimized over the two global chiralities (every plane
// homeomorphism is isotopic to the identity or to a single reflection, so
// orientation must flip for all components together — this is exactly the
// case analysis in the paper's proof of Theorem 3.4).
//
// A cell label renders sparsely: "[", then one item per region the cell is
// not Exterior to — the region's name quoted by strconv.Quote, then 'b'
// (Boundary) or 'o' (Interior) — in region order, which is name order,
// then "]". Quoting keeps the rendering injective for any name, an
// encoding costs O(label entries) rather than O(regions) per cell, and a
// component's encoding does not depend on which other regions the
// instance holds, so FromArrangementDelta can reuse it across generations.

// Canonical returns the canonical encoding of the invariant. Two instances
// over the same names are topologically equivalent iff their canonical
// encodings are equal. Canonical is safe for concurrent use: the lazily
// computed encodings are guarded, so a T shared by a derived-artifact
// cache may be canonicalized from many goroutines.
func (t *T) Canonical() string {
	t.canonMu.Lock()
	defer t.canonMu.Unlock()
	if t.canon == "" {
		e := newEncoder(t)
		t.canon = min(e.instance(0), e.instance(1))
	}
	return t.canon
}

// Equivalent reports whether two invariants describe topologically
// equivalent instances (requires identical name sets; the isomorphism is
// the identity on names).
func Equivalent(a, b *T) bool {
	if len(a.Names) != len(b.Names) {
		return false
	}
	for i := range a.Names {
		if a.Names[i] != b.Names[i] {
			return false
		}
	}
	return a.Canonical() == b.Canonical()
}

// bottomUp returns the component indices deepest first, so every
// component comes after the components nested in its faces.
func (t *T) bottomUp() []int {
	order := make([]int, len(t.Comps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return t.Comps[order[i]].Depth > t.Comps[order[j]].Depth
	})
	return order
}

// encoder renders the canonical encodings of one T. Its traversal scratch
// is indexed by T's vertex, edge and face numbers and reset after every
// start, so a start costs what it writes, not the size of its component.
type encoder struct {
	t      *T
	mirror bool
	quoted []string // quoted region names, filled on first use
	comps  []string // per-component encodings under the current chirality
	pay    []string // memoized face payloads under the current chirality

	verts, edges, faces numbering // per-start traversal numbers
	entry               []End     // the end each numbered vertex was entered by

	buf, best, tmp []byte   // traversal, best traversal, face payload
	kids           []string // sorted nested encodings of one face
}

func newEncoder(t *T) *encoder {
	return &encoder{
		t:      t,
		quoted: make([]string, len(t.Names)),
		pay:    make([]string, len(t.Faces)),
		verts:  newNumbering(len(t.Verts)),
		edges:  newNumbering(len(t.Edges)),
		faces:  newNumbering(len(t.Faces)),
		entry:  make([]End, len(t.Verts)),
	}
}

// numbering numbers cells in first-visit order. num is -1 for a cell not
// visited yet; reset clears only the cells visited.
type numbering struct{ num, order []int32 }

func newNumbering(n int) numbering {
	num := make([]int32, n)
	for i := range num {
		num[i] = -1
	}
	return numbering{num: num}
}

// visit returns cell i's number and whether this call assigned it.
func (m *numbering) visit(i int) (int, bool) {
	if n := m.num[i]; n >= 0 {
		return int(n), false
	}
	m.num[i] = int32(len(m.order))
	m.order = append(m.order, int32(i))
	return len(m.order) - 1, true
}

func (m *numbering) reset() {
	for _, i := range m.order {
		m.num[i] = -1
	}
	m.order = m.order[:0]
}

// instance encodes the whole instance under chirality idx (1: mirrored),
// encoding every component not already recorded in t.comps — by
// FromArrangementDelta's reuse — and recording it there.
func (e *encoder) instance(idx int) string {
	t := e.t
	if t.comps[idx] == nil {
		t.comps[idx] = make([]string, len(t.Comps))
	}
	e.mirror, e.comps = idx == 1, t.comps[idx]
	clear(e.pay)
	for _, ci := range t.bottomUp() {
		if e.comps[ci] == "" {
			e.comps[ci] = e.comp(ci)
		}
	}
	// The instance is the multiset of root encodings: the exterior's children.
	b := append(strconv.AppendInt([]byte("I["), int64(len(t.Names)), 10), "]{"...)
	b = e.appendKids(b, t.Faces[t.Exterior].Children)
	return string(append(b, '}'))
}

// comp returns component ci's encoding: the minimum over every start of
// the full traversal rendering.
func (e *encoder) comp(ci int) string {
	t := e.t
	c := &t.Comps[ci]
	if len(c.Verts) == 0 {
		// A vertex-free closed curve: one edge, an inner face.
		if len(c.Edges) != 1 {
			panic("invariant: vertex-free component with multiple edges")
		}
		ed := &t.Edges[c.Edges[0]]
		inner := ed.FL
		if t.Faces[inner].Comp != ci {
			inner = ed.FR
		}
		b := append(e.appendLabel(append(e.buf[:0], "O("...), ed.Label), ';')
		b = append(append(b, e.payload(inner)...), ')')
		e.buf = b
		return string(b)
	}
	have := false
	for _, vi := range c.Verts {
		for k := range t.Verts[vi].Rot {
			if e.encodeFrom(ci, vi, k, have) {
				e.buf, e.best = e.best, e.buf
				have = true
			}
		}
	}
	return string(e.best)
}

// encodeFrom renders component ci's traversal from rotation position k at
// vertex vi into e.buf and reports whether it is smaller than e.best. With
// prune set, it compares against e.best after every vertex block and
// abandons the start once its prefix is greater (or e.best is a proper
// prefix of it); once the prefix is smaller it renders the rest without
// comparing. Without prune it renders the full traversal and reports true.
func (e *encoder) encodeFrom(ci, vi, k int, prune bool) bool {
	t := e.t
	b := e.buf[:0]
	defer func() { e.verts.reset(); e.edges.reset(); e.faces.reset() }()
	e.verts.visit(vi)
	e.entry[vi] = t.Verts[vi].Rot[k]
	from := 0 // b[:from] == e.best[:from]
	for qi := 0; qi < len(e.verts.order); qi++ {
		v := e.verts.order[qi]
		rot := t.Verts[v].Rot
		start, n := 0, len(rot)
		for rot[start] != e.entry[v] {
			start++
		}
		b = append(e.appendLabel(append(b, 'V'), t.Verts[v].Label), ':')
		for step := 0; step < n; step++ {
			var en End
			if e.mirror {
				en = rot[((start-step)%n+n)%n]
			} else {
				en = rot[(start+step)%n]
			}
			ed := &t.Edges[en.Edge]
			// An edge end appears exactly once in the rotation system, so
			// the second encounter of an edge is always its other end; the
			// raw side index is construction-dependent and not emitted.
			num, fresh := e.edges.visit(en.Edge)
			b = strconv.AppendInt(append(b, 'e'), int64(num), 10)
			if fresh {
				b = append(e.appendLabel(append(b, '('), ed.Label), ')')
			}
			// Face to the left of this outgoing end; under mirror the left
			// face is the stored right face.
			fl := ed.FR
			if (en.Side == 0) != e.mirror {
				fl = ed.FL
			}
			num, _ = e.faces.visit(fl)
			b = strconv.AppendInt(append(b, 'f'), int64(num), 10)
			other := OtherEnd(en)
			w := t.EndVertex(other)
			num, fresh = e.verts.visit(w)
			b = strconv.AppendInt(append(b, ">v"...), int64(num), 10)
			if fresh {
				e.entry[w] = other
				b = append(b, '!')
			}
			b = append(b, ';')
		}
		b = append(b, '|')
		if prune {
			switch c := against(b, e.best, from); {
			case c > 0:
				e.buf = b
				return false
			case c < 0:
				prune = false
			default:
				from = len(b)
			}
		}
	}
	// Face table in first-appearance order. Faces owned by this component
	// carry their payload; the parent face is the marker "P".
	b = append(b, "F:"...)
	for _, fi := range e.faces.order {
		if t.Faces[fi].Comp == ci {
			b = append(b, e.payload(int(fi))...)
		} else {
			b = append(b, 'P')
		}
		b = append(b, ',')
	}
	e.buf = b
	if !prune {
		return true
	}
	c := against(b, e.best, from)
	return c < 0 || (c == 0 && len(b) < len(e.best))
}

// against compares a traversal prefix b with best, given that b[:from]
// already equals best[:from]: negative when b is smaller, positive when b
// is greater or best is a proper prefix of b, zero while b is a prefix of
// best.
func against(b, best []byte, from int) int {
	if len(b) > len(best) {
		if c := bytes.Compare(b[from:len(best)], best[from:]); c != 0 {
			return c
		}
		return 1
	}
	return bytes.Compare(b[from:], best[from:len(b)])
}

// payload returns face fi's payload: its label, then the encodings of the
// components nested in it, sorted and '|'-separated, in braces.
func (e *encoder) payload(fi int) string {
	if p := e.pay[fi]; p != "" {
		return p
	}
	f := &e.t.Faces[fi]
	b := e.appendLabel(e.tmp[:0], f.Label)
	b = append(e.appendKids(append(b, '{'), f.Children), '}')
	e.tmp = b
	e.pay[fi] = string(b)
	return e.pay[fi]
}

// appendKids appends the sorted encodings of the given components,
// '|'-separated.
func (e *encoder) appendKids(b []byte, kids []int) []byte {
	encs, n := e.kids[:0], len(kids)
	for _, ch := range kids {
		encs = append(encs, e.comps[ch])
		n += len(e.comps[ch])
	}
	e.kids = encs
	sort.Strings(encs)
	b = slices.Grow(b, n)
	for i, s := range encs {
		if i > 0 {
			b = append(b, '|')
		}
		b = append(b, s...)
	}
	return b
}

// appendLabel appends the sparse rendering of l described at the top of
// this file.
func (e *encoder) appendLabel(b []byte, l arrange.Label) []byte {
	b = append(b, '[')
	for k := 0; k < l.NumEntries(); k++ {
		ri, s := l.Entry(k)
		q := e.quoted[ri]
		if q == "" {
			q = strconv.Quote(e.t.Names[ri])
			e.quoted[ri] = q
		}
		b = append(b, q...)
		b = append(b, "-bo"[s])
	}
	return append(b, ']')
}
