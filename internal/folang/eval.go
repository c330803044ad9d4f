package folang

import (
	"context"
	"fmt"
	"slices"

	"topodb/internal/fourint"
)

// Options configures evaluation.
type Options struct {
	// RegionEnumLimit caps how many candidate face sets a single region
	// quantifier examines (soundness is kept: a hit is always a real
	// witness; exhaustiveness holds up to the budget).
	RegionEnumLimit int
	// MaxRegionFaces caps the size of candidate regions (0 = no cap).
	MaxRegionFaces int
}

// DefaultOptions returns the evaluation defaults.
func DefaultOptions() Options {
	return Options{RegionEnumLimit: 200000, MaxRegionFaces: 0}
}

// value is a runtime binding: a name or a cell set with its closure
// precomputed (closures dominate atom-evaluation cost, so they are
// computed once per binding, not once per atom). Two bindings stay
// sparse until a predicate needs set algebra: a cell quantifier's single
// face, whose closure is the universe's own CSR row, and a named region,
// whose extent is the universe's sorted row of interior cells. Binding
// either allocates nothing; dense materializes their bitsets once per
// evaluator.
type value struct {
	isName bool
	name   string
	set    Bits
	clo    Bits
	isFace bool
	face   int // face cell, when isFace
	isRow  bool
	region int // region index, when isRow
}

func (ev *Evaluator) mkValue(set Bits) value {
	return value{set: set, clo: ev.U.ClosureOf(set)}
}

// dense returns v with its cell set and closure as bitsets. The dense
// form of a face or a named region is built once per evaluator and
// cached.
func (ev *Evaluator) dense(v value) value {
	switch {
	case v.isFace:
		if ev.faceVals == nil {
			ev.faceVals = make([]value, ev.U.nf)
		}
		if ev.faceVals[v.face].set == nil {
			ev.faceVals[v.face] = ev.mkValue(ev.U.SingleFace(v.face))
		}
		return ev.faceVals[v.face]
	case v.isRow:
		d, ok := ev.regionVals[v.region]
		if !ok {
			d = ev.mkValue(ev.U.Region(ev.U.A.Names[v.region]))
			if ev.regionVals == nil {
				ev.regionVals = map[int]value{}
			}
			ev.regionVals[v.region] = d
		}
		return d
	}
	return v
}

// Evaluator evaluates formulas against a universe.
type Evaluator struct {
	U          *Universe
	Opts       Options
	ctx        context.Context // nil: never canceled
	regionVals map[int]value   // dense named-region values by region index, filled lazily by dense
	faceVals   []value         // dense single-face values, filled lazily by dense
}

// faceValue returns the binding of the single face fi.
func (ev *Evaluator) faceValue(fi int) value {
	return value{isFace: true, face: ev.U.faceCell(fi)}
}

// NewEvaluator returns an evaluator with default options.
func NewEvaluator(u *Universe) *Evaluator {
	return &Evaluator{U: u, Opts: DefaultOptions()}
}

// Eval evaluates a closed formula.
func (ev *Evaluator) Eval(f Formula) (bool, error) {
	return ev.eval(f, map[string]value{})
}

// EvalCtx evaluates a closed formula under a context. Cancellation is
// cooperative: the quantifier loops test the context once per candidate
// binding (bindings dominate evaluation cost, so the check is cheap
// relative to the work it bounds) and return ctx.Err() when it fires.
func (ev *Evaluator) EvalCtx(ctx context.Context, f Formula) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	prev := ev.ctx
	ev.ctx = ctx
	defer func() { ev.ctx = prev }()
	return ev.eval(f, map[string]value{})
}

// canceled returns the evaluator context's error, if any.
func (ev *Evaluator) canceled() error {
	if ev.ctx == nil {
		return nil
	}
	return ev.ctx.Err()
}

// EvalQuery parses and evaluates a query string.
func (ev *Evaluator) EvalQuery(src string) (bool, error) {
	f, err := Parse(src)
	if err != nil {
		return false, err
	}
	return ev.Eval(f)
}

func (ev *Evaluator) resolve(t Term, env map[string]value) (value, error) {
	if v, ok := env[t.Name]; ok {
		return v, nil
	}
	if ri := ev.U.A.RegionIndex(t.Name); ri >= 0 {
		return value{isRow: true, region: ri}, nil
	}
	return value{}, fmt.Errorf("folang: %q is neither a bound variable nor a region name: %w", t.Name, ErrNoRegion)
}

// coerce turns a name value into the extent of that name.
func (ev *Evaluator) coerce(v value) (value, error) {
	if !v.isName {
		return v, nil
	}
	return ev.resolve(Term{Name: v.name}, nil)
}

func (ev *Evaluator) eval(f Formula, env map[string]value) (bool, error) {
	switch f := f.(type) {
	case Atom:
		l, err := ev.resolve(f.L, env)
		if err != nil {
			return false, err
		}
		r, err := ev.resolve(f.R, env)
		if err != nil {
			return false, err
		}
		// Name-valued variables coerce to their extents, mirroring the
		// paper's ext(·) convention.
		if l, err = ev.coerce(l); err != nil {
			return false, err
		}
		if r, err = ev.coerce(r); err != nil {
			return false, err
		}
		return ev.relation(f.Pred, l, r)
	case NameEq:
		l, err := ev.resolve(f.L, env)
		if err != nil {
			return false, err
		}
		r, err := ev.resolve(f.R, env)
		if err != nil {
			return false, err
		}
		if l.isName && r.isName {
			return l.name == r.name, nil
		}
		// ext(a) = ext(b) as sets.
		if !l.isName && !r.isName {
			return ev.dense(l).set.Equal(ev.dense(r).set), nil
		}
		return false, fmt.Errorf("folang: '=' needs two names or two regions")
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
	case Implies:
		l, err := ev.eval(f.L, env)
		if err != nil {
			return false, err
		}
		if !l {
			return true, nil
		}
		return ev.eval(f.R, env)
	case Quant:
		return ev.quant(f, env)
	}
	return false, fmt.Errorf("folang: unknown formula %T", f)
}

func (ev *Evaluator) quant(q Quant, env map[string]value) (bool, error) {
	test := func(v value) (bool, bool, error) { // (decided, result, err)
		if err := ev.canceled(); err != nil {
			return true, false, err
		}
		env[q.Var] = v
		ok, err := ev.eval(q.F, env)
		delete(env, q.Var)
		if err != nil {
			return true, false, err
		}
		if q.Exists && ok {
			return true, true, nil
		}
		if !q.Exists && !ok {
			return true, false, nil
		}
		return false, false, nil
	}
	switch q.Sort {
	case SortName:
		for _, n := range ev.U.A.Names {
			done, res, err := test(value{isName: true, name: n})
			if done || err != nil {
				return res, err
			}
		}
	case SortCell:
		for fi := 0; fi < ev.U.nf; fi++ {
			done, res, err := test(ev.faceValue(fi))
			if done || err != nil {
				return res, err
			}
		}
	case SortRegion:
		var decided bool
		var result bool
		var evalErr error
		ev.U.EnumDiscRegions(ev.Opts.RegionEnumLimit, ev.Opts.MaxRegionFaces, func(faces []int) bool {
			done, res, err := test(ev.mkValue(ev.U.RegularUnion(faces)))
			if err != nil {
				decided, evalErr = true, err
				return false
			}
			if done {
				decided, result = true, res
				return false
			}
			return true
		})
		if evalErr != nil {
			return false, evalErr
		}
		if decided {
			return result, nil
		}
	}
	// Domain exhausted without an early decision.
	return !q.Exists, nil
}

// relation evaluates a binary predicate on two open cell sets using the
// 4-intersection matrix over cells (interiors are the sets themselves,
// boundaries are closure minus set).
func (ev *Evaluator) relation(pred string, xv, yv value) (bool, error) {
	switch pred {
	case "connect":
		return ev.closuresMeet(xv, yv), nil
	case "subset":
		return ev.subset(xv, yv), nil
	}
	xv, yv = ev.dense(xv), ev.dense(yv)
	m := matrix(xv, yv)
	switch pred {
	case "disjoint":
		return m == fourint.Matrix{}, nil
	case "meet":
		return m == fourint.Matrix{BB: true}, nil
	case "equal":
		return m == fourint.Matrix{II: true, BB: true} && xv.set.Equal(yv.set), nil
	case "overlap":
		return m == fourint.Matrix{II: true, IB: true, BI: true, BB: true}, nil
	case "inside":
		return m == fourint.Matrix{II: true, BI: true}, nil
	case "contains":
		return m == fourint.Matrix{II: true, IB: true}, nil
	case "coveredby":
		return m == fourint.Matrix{II: true, BI: true, BB: true}, nil
	case "covers":
		return m == fourint.Matrix{II: true, IB: true, BB: true}, nil
	}
	return false, fmt.Errorf("folang: unknown predicate %q", pred)
}

// matrix computes the 4-intersection matrix of two dense values in one
// pass over their words: interiors are the sets, boundaries the closures
// minus the sets.
func matrix(x, y value) fourint.Matrix {
	var ii, ib, bi, bb uint64
	for i, xs := range x.set {
		ys := y.set[i]
		xb, yb := x.clo[i]&^xs, y.clo[i]&^ys
		ii |= xs & ys
		ib |= xs & yb
		bi |= xb & ys
		bb |= xb & yb
	}
	return fourint.Matrix{II: ii != 0, IB: ib != 0, BI: bi != 0, BB: bb != 0}
}

// subset reports whether x's cells are a subset of y's.
func (ev *Evaluator) subset(x, y value) bool {
	switch {
	case x.isFace && y.isFace:
		return x.face == y.face
	case x.isFace && y.isRow:
		_, ok := slices.BinarySearch(ev.U.regionRow(y.region), int32(x.face))
		return ok
	case x.isFace:
		return y.set.Has(x.face)
	case y.isFace:
		x = ev.dense(x)
		n := x.set.Count()
		return n == 0 || (n == 1 && x.set.Has(y.face))
	}
	return ev.dense(x).set.SubsetOf(ev.dense(y).set)
}

// closuresMeet reports whether the closures of x and y share a cell.
func (ev *Evaluator) closuresMeet(x, y value) bool {
	if !x.isFace {
		x, y = y, x
	}
	if !x.isFace {
		return ev.dense(x).clo.Intersects(ev.dense(y).clo)
	}
	if !y.isFace {
		y = ev.dense(y)
	}
	for _, c := range ev.U.closureRow(x.face) {
		if y.isFace {
			for _, d := range ev.U.closureRow(y.face) {
				if c == d {
					return true
				}
			}
		} else if y.clo.Has(int(c)) {
			return true
		}
	}
	return false
}
