package folang

import (
	"testing"

	"topodb/internal/spatial"
)

// TestFaceBindingsMatchDense pins the cell-quantifier bindings, which keep
// a single face and read its closure off the universe's CSR rows, to the
// dense bitset evaluation: every predicate on every pair of face and
// region bindings must agree. A face's dense form is built once per
// evaluator, so predicates that need it do not allocate per atom.
func TestFaceBindingsMatchDense(t *testing.T) {
	preds := []string{"connect", "subset", "disjoint", "meet", "equal", "overlap", "inside", "contains", "coveredby", "covers"}
	for name, in := range map[string]*spatial.Instance{
		"fig1c": spatial.Fig1c(),
		"fig1b": spatial.Fig1b(),
	} {
		for _, refine := range []int{0, 2} {
			u, err := NewUniverse(in, refine)
			if err != nil {
				t.Fatal(err)
			}
			ev := NewEvaluator(u)
			var vals []value
			for fi := 0; fi < u.NumFaces(); fi++ {
				vals = append(vals, ev.faceValue(fi))
			}
			for _, rn := range u.A.Names {
				v, err := ev.resolve(Term{Name: rn}, nil)
				if err != nil {
					t.Fatal(err)
				}
				vals = append(vals, v)
			}
			for fi := 0; fi < u.NumFaces(); fi++ {
				a, b := ev.dense(vals[fi]), ev.dense(vals[fi])
				if &a.set[0] != &b.set[0] || &a.clo[0] != &b.clo[0] {
					t.Fatalf("%s k=%d: face %d's dense value is rebuilt on each use, want it cached", name, refine, fi)
				}
			}
			for i, x := range vals {
				for j, y := range vals {
					for _, p := range preds {
						got, err := ev.relation(p, x, y)
						if err != nil {
							t.Fatal(err)
						}
						want, err := ev.relation(p, ev.dense(x), ev.dense(y))
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s k=%d: %s(binding %d, binding %d) = %v, dense evaluation %v", name, refine, p, i, j, got, want)
						}
					}
				}
			}
		}
	}
}
