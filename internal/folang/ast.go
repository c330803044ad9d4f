package folang

import "fmt"

// Sort is the sort of a quantified variable.
type Sort int

const (
	// SortName: variable ranges over names(I).
	SortName Sort = iota
	// SortCell: variable ranges over the 2-cells of the arrangement
	// (the §7 "weak" quantifier).
	SortCell
	// SortRegion: variable ranges over legitimate regions — disc-
	// homeomorphic unions of cells (the §7 "strong" quantifier).
	SortRegion
)

func (s Sort) String() string {
	switch s {
	case SortName:
		return "name"
	case SortCell:
		return "cell"
	}
	return "region"
}

// Formula is a node of the query AST.
type Formula interface {
	fmt.Stringer
	isFormula()
}

// Term is a variable reference or a region-name constant; which one is
// resolved at evaluation time (unbound identifiers denote region names,
// mirroring the paper's convention of writing A for ext(A)).
type Term struct {
	Name string
}

func (t Term) String() string { return t.Name }

// Atom applies a binary topological predicate to two terms. Predicates:
// the eight 4-intersection relations (disjoint, meet, equal, overlap,
// inside, contains, covers, coveredBy), plus the derived connect(x,y)
// (¬disjoint closure test) and subset(x,y).
type Atom struct {
	Pred string
	L, R Term
}

func (a Atom) String() string { return fmt.Sprintf("%s(%s, %s)", a.Pred, a.L, a.R) }
func (Atom) isFormula()       {}

// NameEq compares two name-sorted terms.
type NameEq struct{ L, R Term }

func (e NameEq) String() string { return fmt.Sprintf("%s = %s", e.L, e.R) }
func (NameEq) isFormula()       {}

// Not, And, Or, Implies are boolean connectives.
type Not struct{ F Formula }

func (n Not) String() string { return "not " + n.F.String() }
func (Not) isFormula()       {}

type And struct{ L, R Formula }

func (a And) String() string { return fmt.Sprintf("(%s and %s)", a.L, a.R) }
func (And) isFormula()       {}

type Or struct{ L, R Formula }

func (o Or) String() string { return fmt.Sprintf("(%s or %s)", o.L, o.R) }
func (Or) isFormula()       {}

type Implies struct{ L, R Formula }

func (i Implies) String() string { return fmt.Sprintf("(%s implies %s)", i.L, i.R) }
func (Implies) isFormula()       {}

// Quant is a quantified subformula.
type Quant struct {
	Exists bool
	Sort   Sort
	Var    string
	F      Formula
}

// String parenthesizes the quantifier: its body extends as far right as
// the parser can read, so an unparenthesized quantifier followed by a
// sibling conjunct would reparse with the sibling inside its scope.
func (q Quant) String() string {
	k := "all"
	if q.Exists {
		k = "some"
	}
	return fmt.Sprintf("(%s %s %s: %s)", k, q.Sort, q.Var, q.F)
}
func (Quant) isFormula() {}
