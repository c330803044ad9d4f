package folang

import (
	"fmt"

	"topodb/internal/arrange"
)

// SigmaTI generates a sentence in the region-based language that defines
// (a decidable fragment of) the topological equivalence class of the given
// universe's instance, in the spirit of the paper's Proposition 5.1 and
// Theorem 5.6: for each face cell of the instance it existentially asserts
// a distinct cell with the same region labels and the same dual adjacency,
// and then asserts that every cell is one of them. Two instances whose
// face structures differ (count, labels, or adjacency) are separated.
//
// The full Prop 5.1 sentence also pins down lower-dimensional cells and
// the orientation relation O; this generator covers the face-level (dual
// graph) fragment, which already separates all the paper's Fig 1 examples.
// Evaluation cost is |faces|^k for k faces, so it is intended for small
// instances (the paper's sentence is likewise instance-sized).
func SigmaTI(u *Universe) Formula {
	nf := u.nf
	vars := make([]string, nf)
	for i := range vars {
		vars[i] = fmt.Sprintf("x%d", i)
	}
	var body Formula
	add := func(f Formula) {
		if body == nil {
			body = f
		} else {
			body = And{body, f}
		}
	}
	cellEq := func(a, b string) Formula {
		return And{Atom{"subset", Term{a}, Term{b}}, Atom{"subset", Term{b}, Term{a}}}
	}
	// Labels: face i is inside exactly the regions its label says.
	for i := 0; i < nf; i++ {
		lab := u.A.Faces[i].Label
		for ri, name := range u.A.Names {
			atom := Atom{"subset", Term{vars[i]}, Term{name}}
			if lab.At(ri) == arrange.Interior {
				add(atom)
			} else {
				add(Not{atom})
			}
		}
	}
	// Distinctness and dual adjacency (shared closure = connect).
	for i := 0; i < nf; i++ {
		for j := i + 1; j < nf; j++ {
			add(Not{cellEq(vars[i], vars[j])})
			ci := u.ClosureOf(u.SingleFace(i))
			cj := u.ClosureOf(u.SingleFace(j))
			conn := Atom{"connect", Term{vars[i]}, Term{vars[j]}}
			if ci.Intersects(cj) {
				add(conn)
			} else {
				add(Not{conn})
			}
		}
	}
	// Completeness: every cell is one of the asserted ones.
	var anyOf Formula
	for i := 0; i < nf; i++ {
		eq := cellEq("y", vars[i])
		if anyOf == nil {
			anyOf = eq
		} else {
			anyOf = Or{anyOf, eq}
		}
	}
	add(Quant{Exists: false, Sort: SortCell, Var: "y", F: anyOf})

	// Wrap in the existential prefix.
	f := body
	for i := nf - 1; i >= 0; i-- {
		f = Quant{Exists: true, Sort: SortCell, Var: vars[i], F: f}
	}
	return f
}
