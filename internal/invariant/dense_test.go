package invariant

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/region"
	"topodb/internal/spatial"
)

// denseCanonical is the reference encoder the sparse canonical form
// replaced: every label renders as its dense Key (one character per
// region), and each component is minimized by rendering the full
// traversal from every start. It is quadratic and Θ(regions) per label, so
// the tests run it only on small instances; equality under it must agree
// with equality under Canonical for instances over the same names.
func denseCanonical(t *T) string {
	plus, minus := denseInstance(t, false), denseInstance(t, true)
	return min(plus, minus)
}

func denseInstance(t *T, mirror bool) string {
	order := make([]int, len(t.Comps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		return t.Comps[order[i]].Depth > t.Comps[order[j]].Depth
	})
	compEnc := make([]string, len(t.Comps))
	for _, ci := range order {
		compEnc[ci] = denseComp(t, ci, mirror, compEnc)
	}
	var roots []string
	for ci := range t.Comps {
		if t.Comps[ci].ParentFace == t.Exterior {
			roots = append(roots, compEnc[ci])
		}
	}
	sort.Strings(roots)
	return fmt.Sprintf("I[%d]{%s}", len(t.Names), strings.Join(roots, "|"))
}

func denseComp(t *T, ci int, mirror bool, compEnc []string) string {
	c := &t.Comps[ci]
	faceEnc := func(fi int) string {
		f := &t.Faces[fi]
		var kids []string
		for _, ch := range f.Children {
			kids = append(kids, compEnc[ch])
		}
		sort.Strings(kids)
		return f.Label.Key() + "{" + strings.Join(kids, "|") + "}"
	}
	if len(c.Verts) == 0 {
		e := t.Edges[c.Edges[0]]
		inner := e.FL
		if t.Faces[inner].Comp != ci {
			inner = e.FR
		}
		return "O(" + e.Label.Key() + ";" + faceEnc(inner) + ")"
	}
	best := ""
	for _, vi := range c.Verts {
		for k := range t.Verts[vi].Rot {
			if enc := denseFrom(t, ci, vi, k, mirror, faceEnc); best == "" || enc < best {
				best = enc
			}
		}
	}
	return best
}

func denseFrom(t *T, ci, vi, k int, mirror bool, faceEnc func(int) string) string {
	vNum := map[int]int{}
	eNum := map[int]int{}
	fNum := map[int]int{}
	var fOrder []int
	entry := map[int]End{}
	queue := []int{vi}
	vNum[vi] = 0
	entry[vi] = t.Verts[vi].Rot[k]

	var b strings.Builder
	faceOf := func(fi int) int {
		if n, ok := fNum[fi]; ok {
			return n
		}
		n := len(fNum)
		fNum[fi] = n
		fOrder = append(fOrder, fi)
		return n
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		rot := t.Verts[v].Rot
		start := -1
		for i, en := range rot {
			if en == entry[v] {
				start = i
				break
			}
		}
		fmt.Fprintf(&b, "V%s:", t.Verts[v].Label.Key())
		n := len(rot)
		for step := 0; step < n; step++ {
			var en End
			if mirror {
				en = rot[((start-step)%n+n)%n]
			} else {
				en = rot[(start+step)%n]
			}
			e := &t.Edges[en.Edge]
			num, seenEdge := eNum[en.Edge]
			if !seenEdge {
				num = len(eNum)
				eNum[en.Edge] = num
			}
			var fl int
			if (en.Side == 0) != mirror {
				fl = e.FL
			} else {
				fl = e.FR
			}
			fmt.Fprintf(&b, "e%d", num)
			if !seenEdge {
				fmt.Fprintf(&b, "(%s)", e.Label.Key())
			}
			fmt.Fprintf(&b, "f%d", faceOf(fl))
			other := OtherEnd(en)
			w := t.EndVertex(other)
			if wn, ok := vNum[w]; ok {
				fmt.Fprintf(&b, ">v%d;", wn)
			} else {
				vNum[w] = len(vNum)
				entry[w] = other
				queue = append(queue, w)
				fmt.Fprintf(&b, ">v%d!;", vNum[w])
			}
		}
		b.WriteByte('|')
	}
	b.WriteString("F:")
	for _, fi := range fOrder {
		if t.Faces[fi].Comp == ci {
			b.WriteString(faceEnc(fi))
		} else {
			b.WriteString("P")
		}
		b.WriteByte(',')
	}
	return b.String()
}

// unprunedCanonical is Canonical with every component minimized over the
// full rendering from every start, so it checks the pruned minimization.
// t must not have been canonicalized.
func unprunedCanonical(t *T) string {
	e := newEncoder(t)
	for idx := range t.comps {
		e.mirror, e.comps = idx == 1, make([]string, len(t.Comps))
		clear(e.pay)
		for _, ci := range t.bottomUp() {
			if len(t.Comps[ci].Verts) == 0 {
				e.comps[ci] = e.comp(ci)
				continue
			}
			for _, vi := range t.Comps[ci].Verts {
				for k := range t.Verts[vi].Rot {
					e.encodeFrom(ci, vi, k, false)
					if enc := string(e.buf); e.comps[ci] == "" || enc < e.comps[ci] {
						e.comps[ci] = enc
					}
				}
			}
		}
		t.comps[idx] = e.comps
	}
	return t.Canonical()
}

// mapInstance applies a coordinate map to every vertex of every region.
func mapInstance(in *spatial.Instance, f func(geom.Pt) geom.Pt) *spatial.Instance {
	out := spatial.New()
	for _, n := range in.Names() {
		ring := in.MustExt(n).Ring()
		mapped := make(geom.Ring, len(ring))
		for i, p := range ring {
			mapped[i] = f(p)
		}
		out.MustAdd(n, region.MustPoly(mapped))
	}
	return out
}

// encodings records one instance's encodings: its names, the dense
// reference encoding and the sparse canonical one.
type encodings struct{ names, dense, sparse string }

// encode encodes inv both ways and checks the pruned minimization against
// the unpruned one on a second invariant of the same arrangement.
func encode(t *testing.T, what string, inv *T, err error) encodings {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	fresh, err := FromArrangement(inv.src)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got := encodings{strings.Join(inv.Names, "\x00"), denseCanonical(inv), inv.Canonical()}
	if u := unprunedCanonical(fresh); u != got.sparse {
		t.Fatalf("%s: pruned minimization differs from the unpruned minimum\n pruned: %.200s\nunpruned: %.200s", what, got.sparse, u)
	}
	return got
}

// checkSameClasses fails unless, among instances over the same names, two
// are equal under the dense encoding iff they are equal under the sparse
// one. It returns the number of classes.
func checkSameClasses(t *testing.T, encs map[string]encodings) int {
	t.Helper()
	whats := make([]string, 0, len(encs))
	for what := range encs {
		whats = append(whats, what)
	}
	sort.Strings(whats)
	type key struct{ names, enc string }
	sparseOf, denseOf := map[key]string{}, map[key]string{}
	for _, what := range whats {
		e := encs[what]
		d, s := key{e.names, e.dense}, key{e.names, e.sparse}
		if other, ok := sparseOf[d]; ok && other != e.sparse {
			t.Errorf("%s: equal to another instance under the dense encoding, not under the sparse one", what)
		}
		if other, ok := denseOf[s]; ok && other != e.dense {
			t.Errorf("%s: equal to another instance under the sparse encoding, not under the dense one", what)
		}
		sparseOf[d], denseOf[s] = e.sparse, e.dense
	}
	return len(sparseOf)
}

// The sparse canonical encoding decides the same equivalences as the dense
// encoding it replaced, and its pruned minimization equals the unpruned
// minimum: over every golden case with a mirrored and a monotonically
// rescaled copy of each, and over random small rectangle instances.
func TestSparseCanonicalMatchesDense(t *testing.T) {
	mirror := func(p geom.Pt) geom.Pt { return geom.Pt{X: p.X.Neg(), Y: p.Y} }
	rescale := func(p geom.Pt) geom.Pt {
		return geom.Pt{X: p.X.Mul(rat.FromInt(3)).Add(rat.FromInt(7)), Y: p.Y.Mul(rat.FromInt(2)).Sub(rat.FromInt(5))}
	}
	var mu sync.Mutex
	encs := map[string]encodings{}
	cases := canonCases()
	t.Run("golden", func(t *testing.T) {
		for name, c := range cases {
			for suffix, in := range map[string]*spatial.Instance{
				"": c.in, "/mirrored": mapInstance(c.in, mirror), "/rescaled": mapInstance(c.in, rescale),
			} {
				what, c, in := name+suffix, c, in
				t.Run(what, func(t *testing.T) {
					t.Parallel() // the dense encoder takes seconds on the largest cases
					inv, err := c.build(in)
					e := encode(t, what, inv, err)
					mu.Lock()
					defer mu.Unlock()
					encs[what] = e
				})
			}
		}
	})
	for name, c := range cases {
		if !c.s && (encs[name+"/mirrored"].sparse != encs[name].sparse || encs[name+"/rescaled"].sparse != encs[name].sparse) {
			t.Errorf("%s: a mirrored or rescaled copy is not equivalent", name)
		}
	}
	t.Logf("golden cases and copies: %d classes", checkSameClasses(t, encs))

	rng := rand.New(rand.NewSource(1))
	encs = map[string]encodings{}
	for i := 0; i < 4000; i++ {
		in := spatial.New()
		for r, k := 0, 2+rng.Intn(3); r < k; r++ {
			x, y := int64(rng.Intn(6)), int64(rng.Intn(6))
			w, h := 1+int64(rng.Intn(int(6-x))), 1+int64(rng.Intn(int(6-y)))
			in.MustAdd(string(rune('A'+r)), region.MustRect(x, y, x+w, y+h))
		}
		what := fmt.Sprintf("random %d", i)
		inv, err := New(in)
		encs[what] = encode(t, what, inv, err)
	}
	t.Logf("random rectangles: %d classes", checkSameClasses(t, encs))
}
