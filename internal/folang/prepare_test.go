package folang

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"topodb/internal/spatial"
)

func TestParseErrorTyped(t *testing.T) {
	for _, src := range []string{"", "some cell", "overlap(A,", "not", "badpred(A, B)", "overlap(A, B) trailing"} {
		_, err := Parse(src)
		if err == nil {
			t.Fatalf("Parse(%q) succeeded", src)
		}
		if !errors.Is(err, ErrParse) {
			t.Errorf("Parse(%q): %v does not match ErrParse", src, err)
		}
		var pe *ParseError
		if !errors.As(err, &pe) || pe.Src != src {
			t.Errorf("Parse(%q): error %v does not carry the source", src, err)
		}
	}
	if _, err := Parse("overlap(A, B)"); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
}

func TestAnalyzeFreeNames(t *testing.T) {
	cases := []struct {
		src   string
		free  []string
		quant int
		outer bool
	}{
		{"overlap(A, B)", []string{"A", "B"}, 0, false},
		{"some cell r: subset(r, A) and subset(r, B)", []string{"A", "B"}, 1, true},
		{"all name a: connect(a, a)", nil, 1, true},
		{"some name a: some name b: (not a = b) and inside(a, b)", nil, 2, true},
		{"some cell r: subset(r, A) implies (all cell s: connect(s, r) or subset(s, B))", []string{"A", "B"}, 2, true},
		// Shadowing: the outer r is bound; the atom's A is free.
		{"some cell r: some cell r: subset(r, A)", []string{"A"}, 2, true},
	}
	for _, c := range cases {
		f := MustParse(c.src)
		info := Analyze(f)
		if !reflect.DeepEqual(info.FreeNames, c.free) {
			t.Errorf("%q: free names %v, want %v", c.src, info.FreeNames, c.free)
		}
		if info.Quantifiers != c.quant {
			t.Errorf("%q: %d quantifiers, want %d", c.src, info.Quantifiers, c.quant)
		}
		if (info.Outer != nil) != c.outer {
			t.Errorf("%q: outer = %v, want present=%v", c.src, info.Outer, c.outer)
		}
	}
}

func TestAnalyzeMissingNames(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	info := Analyze(MustParse("overlap(A, Zed) or overlap(B, Qux)"))
	missing := info.MissingNames(u)
	if !reflect.DeepEqual(missing, []string{"Qux", "Zed"}) {
		t.Fatalf("missing = %v, want [Qux Zed]", missing)
	}
	if got := Analyze(MustParse("overlap(A, B)")).MissingNames(u); got != nil {
		t.Fatalf("missing = %v for resolvable query", got)
	}
}

func TestEvalUnknownRegionTyped(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewEvaluator(u).EvalQuery("overlap(A, Zed)")
	if !errors.Is(err, ErrNoRegion) {
		t.Fatalf("unknown region error %v does not match ErrNoRegion", err)
	}
}

func TestEvalCtxCancellation(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// The region quantifier walks many candidate face sets: cancellation
	// must interrupt it on the first binding.
	f := MustParse("some region r: overlap(r, A) and overlap(r, B)")
	if _, err := NewEvaluator(u).EvalCtx(ctx, f); !errors.Is(err, context.Canceled) {
		t.Fatalf("EvalCtx on canceled ctx: %v, want context.Canceled", err)
	}
	// A live context evaluates normally and agrees with the ctx-less path.
	want, err := NewEvaluator(u).Eval(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewEvaluator(u).EvalCtx(context.Background(), f)
	if err != nil || got != want {
		t.Fatalf("EvalCtx = %v, %v; Eval = %v", got, err, want)
	}
}

func TestEvalCtxDeadline(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	f := MustParse("some region r: overlap(r, A) and overlap(r, B)")
	if _, err := NewEvaluator(u).EvalCtx(ctx, f); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: %v, want context.DeadlineExceeded", err)
	}
}

func TestSelectNames(t *testing.T) {
	// Fig1c: A and B overlap.
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewEvaluator(u).Select(context.Background(), MustParse("some name x: overlap(x, A)"))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Sort != SortName || sel.Var != "x" {
		t.Fatalf("selection header = %v/%q", sel.Sort, sel.Var)
	}
	if !reflect.DeepEqual(sel.Names, []string{"B"}) {
		t.Fatalf("overlap(x, A) witnesses = %v, want [B]", sel.Names)
	}
	// Reflexive connect holds for every name.
	sel, err = NewEvaluator(u).Select(context.Background(), MustParse("all name x: connect(x, x)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Names) != len(u.A.Names) {
		t.Fatalf("connect(x, x) holds for %v, want all of %v", sel.Names, u.A.Names)
	}
}

func TestSelectCellsMatchQuantifier(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	body := "subset(r, A) and subset(r, B)"
	sel, err := NewEvaluator(u).Select(context.Background(), MustParse("some cell r: "+body))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Sort != SortCell {
		t.Fatalf("sort = %v", sel.Sort)
	}
	// Cross-check every reported cell against a direct evaluation, and
	// the count against the some/all verdicts.
	ev := NewEvaluator(u)
	count := 0
	for fi := 0; fi < u.NumFaces(); fi++ {
		v := ev.dense(ev.faceValue(fi))
		ok := v.set.SubsetOf(u.Region("A")) && v.set.SubsetOf(u.Region("B"))
		if ok {
			count++
		}
		reported := false
		for _, c := range sel.Cells {
			if c == fi {
				reported = true
			}
		}
		if ok != reported {
			t.Errorf("cell %d: holds=%v reported=%v", fi, ok, reported)
		}
	}
	if count != len(sel.Cells) || count == 0 {
		t.Fatalf("select returned %d cells, direct scan %d", len(sel.Cells), count)
	}
	someVerdict, err := NewEvaluator(u).EvalQuery("some cell r: " + body)
	if err != nil {
		t.Fatal(err)
	}
	if someVerdict != (len(sel.Cells) > 0) {
		t.Fatalf("some verdict %v inconsistent with %d witnesses", someVerdict, len(sel.Cells))
	}
}

func TestSelectNotSelectable(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only a quantifier-free formula is unselectable now: region-sorted
	// quantifiers enumerate bounded witnesses (TestSelectRegionWitnesses).
	_, err = NewEvaluator(u).Select(context.Background(), MustParse("overlap(A, B)"))
	if !errors.Is(err, ErrNotSelectable) {
		t.Errorf("Select(quantifier-free): %v, want ErrNotSelectable", err)
	}
}

func TestSelectRegionWitnesses(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := MustParse("some region r: subset(r, A) and subset(r, B)")
	sel, err := NewEvaluator(u).Select(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Sort != SortRegion || sel.Regions == nil || sel.Names != nil || sel.Cells != nil {
		t.Fatalf("region result misshapen: %+v", sel)
	}
	if !sel.Complete {
		t.Fatalf("default budget should exhaust Fig1c's region domain")
	}
	if len(sel.Regions) == 0 {
		t.Fatalf("A ∩ B contains cells in Fig1c; want region witnesses")
	}
	// Every reported witness must be a legitimate disc region whose
	// regular union satisfies the body.
	ev := NewEvaluator(u)
	for _, faces := range sel.Regions {
		if !u.IsDiscRegion(faces) {
			t.Errorf("witness %v is not a disc region", faces)
		}
		v := ev.mkValue(u.RegularUnion(faces))
		if !v.set.SubsetOf(u.Region("A")) || !v.set.SubsetOf(u.Region("B")) {
			t.Errorf("witness %v does not satisfy the body", faces)
		}
	}
	// Witness count agrees with an independent enumeration of the domain.
	want := 0
	u.EnumDiscRegions(DefaultOptions().RegionEnumLimit, 0, func(faces []int) bool {
		v := ev.mkValue(u.RegularUnion(faces))
		if v.set.SubsetOf(u.Region("A")) && v.set.SubsetOf(u.Region("B")) {
			want++
		}
		return true
	})
	if len(sel.Regions) != want {
		t.Fatalf("select returned %d region witnesses, direct scan %d", len(sel.Regions), want)
	}
	// The some-verdict is consistent with a nonempty witness list.
	verdict, err := NewEvaluator(u).EvalCtx(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if verdict != (len(sel.Regions) > 0) {
		t.Fatalf("verdict %v inconsistent with %d witnesses", verdict, len(sel.Regions))
	}
}

func TestSelectRegionBudgetTruncates(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(u)
	ev.Opts.RegionEnumLimit = 1 // one candidate examined, then stop
	sel, err := ev.Select(context.Background(), MustParse("some region r: subset(r, A)"))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Complete {
		t.Fatalf("limit 1 cannot exhaust the domain; Complete must be false")
	}
	if len(sel.Regions) > 1 {
		t.Fatalf("limit 1 examined %d witnesses", len(sel.Regions))
	}
}

func TestSelectCanceled(t *testing.T) {
	u, err := NewUniverse(spatial.Fig1c(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = NewEvaluator(u).Select(ctx, MustParse("some cell r: subset(r, A)"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled Select: %v", err)
	}
}
