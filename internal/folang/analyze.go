package folang

import "sort"

// QueryInfo is the static analysis of a parsed formula, computed once at
// prepare time so re-evaluations skip both parsing and the walk.
type QueryInfo struct {
	// FreeNames lists the identifiers that are not bound by any
	// enclosing quantifier, in sorted order. In this language an
	// unbound identifier denotes a region name (the paper writes A for
	// ext(A)), so these are exactly the instance names the formula
	// needs; evaluation fails with ErrNoRegion when one is absent.
	FreeNames []string

	// Quantifiers counts the quantifier nodes of the formula — the
	// exponent of evaluation cost (Theorem 6.5).
	Quantifiers int

	// Outer is the outermost quantifier when the formula is one, else
	// nil. Select enumerates its bindings.
	Outer *Quant
}

// Analyze computes the QueryInfo of a formula. Predicates are validated
// by the parser, so a parsed formula only needs the binding analysis.
func Analyze(f Formula) *QueryInfo {
	info := &QueryInfo{}
	free := map[string]bool{}
	var walk func(f Formula, bound map[string]bool)
	term := func(t Term, bound map[string]bool) {
		if !bound[t.Name] {
			free[t.Name] = true
		}
	}
	walk = func(f Formula, bound map[string]bool) {
		switch f := f.(type) {
		case Atom:
			term(f.L, bound)
			term(f.R, bound)
		case NameEq:
			term(f.L, bound)
			term(f.R, bound)
		case Not:
			walk(f.F, bound)
		case And:
			walk(f.L, bound)
			walk(f.R, bound)
		case Or:
			walk(f.L, bound)
			walk(f.R, bound)
		case Implies:
			walk(f.L, bound)
			walk(f.R, bound)
		case Quant:
			info.Quantifiers++
			if shadowed := bound[f.Var]; shadowed {
				walk(f.F, bound)
				return
			}
			bound[f.Var] = true
			walk(f.F, bound)
			delete(bound, f.Var)
		}
	}
	if q, ok := f.(Quant); ok {
		info.Outer = &q
	}
	walk(f, map[string]bool{})
	for n := range free {
		info.FreeNames = append(info.FreeNames, n)
	}
	sort.Strings(info.FreeNames)
	return info
}

// MissingNames returns the free names of info that the universe has no
// region for, in sorted order. Empty means the formula can be evaluated
// without hitting ErrNoRegion.
func (info *QueryInfo) MissingNames(u *Universe) []string {
	var missing []string
	for _, n := range info.FreeNames {
		if u.A.RegionIndex(n) < 0 {
			missing = append(missing, n)
		}
	}
	return missing
}
