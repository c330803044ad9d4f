// Package pointlang implements the paper's point-based spatial logic
// FO(P, <x, <y, Region) (§5, Relative Completeness): first-order formulas
// with point variables, the coordinate orders <x and <y, and region
// membership atoms a(p). The paper proves (Theorem 5.8) that its S-generic
// fragment coincides with the region-based FO(Rect, Disc), and (Prop 5.7)
// that it coincides with the M-generic fragment of FO(R, <, Disc).
//
// Evaluation uses the order-generic collapse: a quantified point can be
// taken from the finite grid spanned by the instance's vertex coordinates,
// previously bound points, the midpoints of consecutive critical values,
// and sentinels beyond the extremes — for order-generic (S-generic)
// queries this finite domain is complete, because any two points in the
// same grid cell with the same relative order to all bound points satisfy
// the same atomic formulas.
package pointlang

import (
	"fmt"
	"sort"

	"topodb/internal/arrange"
	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/spatial"
)

// Formula is a point-language formula.
type Formula interface{ isFormula() }

// In asserts that the point variable P lies in region (name) A.
type In struct {
	A string
	P string
}

// LessX asserts p <x q; LessY asserts p <y q.
type LessX struct{ P, Q string }
type LessY struct{ P, Q string }

// Not, And, Or are the connectives.
type Not struct{ F Formula }
type And struct{ L, R Formula }
type Or struct{ L, R Formula }

// Exists and Forall quantify a point variable.
type Exists struct {
	Var string
	F   Formula
}
type Forall struct {
	Var string
	F   Formula
}

func (In) isFormula()     {}
func (LessX) isFormula()  {}
func (LessY) isFormula()  {}
func (Not) isFormula()    {}
func (And) isFormula()    {}
func (Or) isFormula()     {}
func (Exists) isFormula() {}
func (Forall) isFormula() {}

// Evaluator evaluates point-language formulas on an instance. Region
// membership atoms resolve through the instance's arrangement when one is
// available: a quantifier probes the same sample grid for every atom of
// its body, so locating each probe once in the cell complex (O(log E +
// candidates) through the persistent x-interval index) and reading the
// cell's precomputed sign vector replaces one exact ring walk per (probe,
// region) pair.
type Evaluator struct {
	in *spatial.Instance
	a  *arrange.Arrangement // nil: fall back to per-region ring walks
	// Critical coordinates: all ring vertex coordinates.
	xs, ys []rat.R
}

// NewEvaluator prepares the critical-coordinate grid and builds the
// instance's arrangement so membership atoms answer through
// Arrangement.Locate. When the arrangement is unavailable (an empty
// instance, or one past the region budget) the evaluator silently keeps
// the direct ring-walk path — the semantics are identical, only the
// point-location strategy differs (property-tested in the package tests).
func NewEvaluator(in *spatial.Instance) *Evaluator {
	a, err := arrange.Build(in)
	if err != nil {
		a = nil
	}
	return NewEvaluatorOn(a, in)
}

// NewEvaluatorOn prepares an evaluator that locates points in an existing
// arrangement of the instance (as built by arrange.Build; callers with a
// cached arrangement share it instead of rebuilding). a may be nil, which
// selects the direct ring-walk fallback.
func NewEvaluatorOn(a *arrange.Arrangement, in *spatial.Instance) *Evaluator {
	ev := &Evaluator{in: in, a: a}
	for _, n := range in.Names() {
		for _, p := range in.MustExt(n).Ring() {
			ev.xs = append(ev.xs, p.X)
			ev.ys = append(ev.ys, p.Y)
		}
	}
	ev.xs = dedupSort(ev.xs)
	ev.ys = dedupSort(ev.ys)
	return ev
}

// inRegion answers the membership atom a(p): through the arrangement's
// point-location index when available, by an exact ring walk otherwise.
// Membership means the open interior, matching geom.Inside.
func (ev *Evaluator) inRegion(name string, p geom.Pt) (bool, error) {
	if ev.a != nil {
		ri := ev.a.RegionIndex(name)
		if ri < 0 {
			return false, fmt.Errorf("pointlang: unknown region %q", name)
		}
		loc := ev.a.Locate(p)
		switch loc.Kind {
		case arrange.LocVertex:
			return ev.a.Verts[loc.Index].Label.At(ri) == arrange.Interior, nil
		case arrange.LocEdge:
			return ev.a.Edges[loc.Index].Label.At(ri) == arrange.Interior, nil
		default:
			return ev.a.Faces[loc.Index].Label.At(ri) == arrange.Interior, nil
		}
	}
	r, ok := ev.in.Ext(name)
	if !ok {
		return false, fmt.Errorf("pointlang: unknown region %q", name)
	}
	return r.Locate(p) == geom.Inside, nil
}

func dedupSort(vs []rat.R) []rat.R {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
	out := vs[:0]
	for _, v := range vs {
		if len(out) == 0 || !out[len(out)-1].Equal(v) {
			out = append(out, v)
		}
	}
	return out
}

// samples returns the candidate values for one coordinate axis: the
// critical values, midpoints of consecutive ones, sentinels outside the
// range, and the coordinates of already-bound points.
func samples(critical []rat.R, bound []rat.R) []rat.R {
	all := append(append([]rat.R(nil), critical...), bound...)
	all = dedupSort(all)
	if len(all) == 0 {
		return []rat.R{rat.Zero}
	}
	out := []rat.R{all[0].Sub(rat.One)}
	for i, v := range all {
		out = append(out, v)
		if i+1 < len(all) {
			out = append(out, rat.Mid(v, all[i+1]))
		}
	}
	out = append(out, all[len(all)-1].Add(rat.One))
	return out
}

// Eval evaluates a closed formula.
func (ev *Evaluator) Eval(f Formula) (bool, error) {
	return ev.eval(f, map[string]geom.Pt{})
}

func (ev *Evaluator) eval(f Formula, env map[string]geom.Pt) (bool, error) {
	switch f := f.(type) {
	case In:
		p, ok := env[f.P]
		if !ok {
			return false, fmt.Errorf("pointlang: unbound point %q", f.P)
		}
		return ev.inRegion(f.A, p)
	case LessX:
		p, q, err := ev.pair(env, f.P, f.Q)
		if err != nil {
			return false, err
		}
		return p.X.Less(q.X), nil
	case LessY:
		p, q, err := ev.pair(env, f.P, f.Q)
		if err != nil {
			return false, err
		}
		return p.Y.Less(q.Y), nil
	case Not:
		v, err := ev.eval(f.F, env)
		return !v, err
	case And:
		l, err := ev.eval(f.L, env)
		if err != nil || !l {
			return false, err
		}
		return ev.eval(f.R, env)
	case Or:
		l, err := ev.eval(f.L, env)
		if err != nil {
			return false, err
		}
		if l {
			return true, nil
		}
		return ev.eval(f.R, env)
	case Exists:
		return ev.quant(f.Var, f.F, env, true)
	case Forall:
		return ev.quant(f.Var, f.F, env, false)
	}
	return false, fmt.Errorf("pointlang: unknown formula %T", f)
}

func (ev *Evaluator) pair(env map[string]geom.Pt, a, b string) (geom.Pt, geom.Pt, error) {
	p, ok := env[a]
	if !ok {
		return geom.Pt{}, geom.Pt{}, fmt.Errorf("pointlang: unbound point %q", a)
	}
	q, ok := env[b]
	if !ok {
		return geom.Pt{}, geom.Pt{}, fmt.Errorf("pointlang: unbound point %q", b)
	}
	return p, q, nil
}

func (ev *Evaluator) quant(v string, body Formula, env map[string]geom.Pt, exists bool) (bool, error) {
	var bx, by []rat.R
	for _, p := range env {
		bx = append(bx, p.X)
		by = append(by, p.Y)
	}
	xs := samples(ev.xs, bx)
	ys := samples(ev.ys, by)
	for _, x := range xs {
		for _, y := range ys {
			env[v] = geom.Pt{X: x, Y: y}
			ok, err := ev.eval(body, env)
			delete(env, v)
			if err != nil {
				return false, err
			}
			if exists && ok {
				return true, nil
			}
			if !exists && !ok {
				return false, nil
			}
		}
	}
	return !exists, nil
}
