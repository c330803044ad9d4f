// Command benchtab regenerates the paper's tables and figures as text
// output. Run with no arguments to produce everything, or name specific
// artifacts:
//
//	benchtab fig1 fig2 fig4 fig5 fig7 fig9 fig10 fig11 fig14
//
// With -serve-load, benchtab becomes a load generator for the topodbd
// serving tier: it drives /v1/query at a target QPS with a concurrency
// ramp (an in-process server by default, or a running topodbd via
// -load-url) and reports client-side p50/p95/p99 latency plus the
// server's coalesce/shed counters. -assert-coalesce N and
// -assert-no-5xx make it a CI smoke gate:
//
//	benchtab -serve-load -load-qps 200 -load-duration 3s -assert-coalesce 1 -assert-no-5xx
//
// The end-to-end performance benchmark is cmd/topobench.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"topodb/internal/arrange"
	"topodb/internal/folang"
	"topodb/internal/fourint"
	"topodb/internal/invariant"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/thematic"
	"topodb/internal/xform"
)

var (
	jsonOut = flag.Bool("json", false, "serve-load: emit the report as JSON")

	serveLoadMode  = flag.Bool("serve-load", false, "run the serving-tier load generator instead of table artifacts")
	loadURL        = flag.String("load-url", "", "target a running topodbd base URL (default: in-process server)")
	loadQPS        = flag.Int("load-qps", 200, "serve-load: target aggregate QPS")
	loadDur        = flag.Duration("load-duration", 3*time.Second, "serve-load: run length")
	loadConc       = flag.Int("load-conc", 16, "serve-load: peak concurrent workers, ramped up over the first half")
	assertCoalesce = flag.Int("assert-coalesce", -1, "serve-load: fail unless at least this many coalesce hits (-1 = no assertion)")
	assertNo5xx    = flag.Bool("assert-no-5xx", false, "serve-load: fail on any 5xx response")
)

var sections map[string]func()

func init() {
	sections = map[string]func(){
		"fig1":  fig1,
		"fig2":  fig2,
		"fig4":  fig4,
		"fig5":  fig5,
		"fig7":  fig7,
		"fig9":  fig9,
		"fig10": fig10,
		"fig11": fig11,
		"fig14": fig14,
	}
}

func main() {
	flag.Parse()
	if *serveLoadMode {
		if err := validateServeLoad(*loadQPS, *loadDur); err != nil {
			fmt.Fprintln(os.Stderr, "benchtab:", err)
			flag.Usage()
			os.Exit(2)
		}
		serveLoad()
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"fig1", "fig2", "fig4", "fig5", "fig7", "fig9", "fig10", "fig11", "fig14"}
	}
	for _, a := range args {
		f, ok := sections[a]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtab: unknown artifact %q\n", a)
			os.Exit(1)
		}
		fmt.Printf("==== %s ====\n", a)
		f()
		fmt.Println()
	}
}

func fig1() {
	fmt.Println("Fig 1: four instances; (a,b) and (c,d) are 4-intersection")
	fmt.Println("equivalent but not topologically equivalent.")
	pairs := [][2]*spatial.Instance{
		{spatial.Fig1a(), spatial.Fig1b()},
		{spatial.Fig1c(), spatial.Fig1d()},
	}
	labels := [][2]string{{"1a", "1b"}, {"1c", "1d"}}
	for i, p := range pairs {
		fi, err := fourint.EquivalentInstances(p[0], p[1])
		check(err)
		t1, err := invariant.New(p[0])
		check(err)
		t2, err := invariant.New(p[1])
		check(err)
		fmt.Printf("  %s vs %s: 4-intersection equivalent=%v, H-equivalent=%v\n",
			labels[i][0], labels[i][1], fi, invariant.Equivalent(t1, t2))
	}
	// Example 2.1 / 4.1 / 4.2 separating queries.
	q41 := "some cell r: (subset(r, A) and subset(r, B)) and subset(r, C)"
	for name, in := range map[string]*spatial.Instance{"1a": spatial.Fig1a(), "1b": spatial.Fig1b()} {
		u, err := folang.NewUniverse(in, 0)
		check(err)
		v, err := folang.NewEvaluator(u).EvalQuery(q41)
		check(err)
		fmt.Printf("  Example 4.1 on %s (∃r ⊆ A∩B∩C): %v\n", name, v)
	}
	q42 := `all cell x: all cell y:
	  ((subset(x, A) and subset(x, B)) and (subset(y, A) and subset(y, B)))
	  implies (some region r: ((subset(r, A) and subset(r, B)) and (connect(r, x) and connect(r, y))))`
	for name, in := range map[string]*spatial.Instance{"1c": spatial.Fig1c(), "1d": spatial.Fig1d()} {
		u, err := folang.NewUniverse(in, 0)
		check(err)
		v, err := folang.NewEvaluator(u).EvalQuery(q42)
		check(err)
		fmt.Printf("  Example 2.1 on %s (A∩B connected): %v\n", name, v)
	}
}

func fig2() {
	fmt.Println("Fig 2: the eight 4-intersection relations and their matrices.")
	type cfg struct {
		rel fourint.Relation
		in  *spatial.Instance
	}
	mk := func(ax1, ay1, ax2, ay2, bx1, by1, bx2, by2 int64) *spatial.Instance {
		in := spatial.New()
		check(addRect(in, "A", ax1, ay1, ax2, ay2))
		check(addRect(in, "B", bx1, by1, bx2, by2))
		return in
	}
	cfgs := []cfg{
		{fourint.Disjoint, mk(0, 0, 4, 4, 6, 0, 10, 4)},
		{fourint.Meet, mk(0, 0, 4, 4, 4, 0, 8, 4)},
		{fourint.Equal, mk(0, 0, 4, 4, 0, 0, 4, 4)},
		{fourint.Overlap, mk(0, 0, 4, 4, 2, 2, 6, 6)},
		{fourint.Inside, mk(1, 1, 3, 3, 0, 0, 8, 8)},
		{fourint.Contains, mk(0, 0, 8, 8, 1, 1, 3, 3)},
		{fourint.CoveredBy, mk(0, 0, 4, 4, 0, 0, 8, 8)},
		{fourint.Covers, mk(0, 0, 8, 8, 0, 0, 4, 4)},
	}
	for _, c := range cfgs {
		rel, err := fourint.Relate(c.in, "A", "B")
		check(err)
		sub := c.in
		a, err := arrangeOf(sub)
		check(err)
		m := fourint.MatrixOf(a, 0, 1)
		status := "ok"
		if rel != c.rel {
			status = fmt.Sprintf("MISMATCH got %v", rel)
		}
		fmt.Printf("  %-10s %-22s %s\n", c.rel, m, status)
	}
}

func fig4() {
	fmt.Println("Fig 4: region-class invariance under the groups (empirical).")
	fmt.Println("  class   S     L")
	for _, row := range xform.Fig4Table() {
		fmt.Printf("  %-6s  %-5v %-5v\n", row.Class, row.UnderS, row.UnderL)
	}
}

func fig5() {
	fmt.Println("Fig 5 / Example 3.1: the invariant of Fig 1c.")
	t, err := invariant.New(spatial.Fig1c())
	check(err)
	fmt.Print(t.String())
}

func fig7() {
	fmt.Println("Fig 7: nonsimple instances needing nesting (7a) and orientation (7b).")
	o := spatial.InterlockedO()
	inHole := o.Clone()
	check(addRect(inHole, "C", 5, 3, 7, 5))
	outside := o.Clone()
	check(addRect(outside, "C", 20, 3, 22, 5))
	t1, err := invariant.New(inHole)
	check(err)
	t2, err := invariant.New(outside)
	check(err)
	fmt.Printf("  7a (C in hole vs outside): equivalent=%v\n", invariant.Equivalent(t1, t2))
	i, ip := spatial.Fig7b()
	t3, err := invariant.New(i)
	check(err)
	t4, err := invariant.New(ip)
	check(err)
	v, e, f := t3.Stats()
	fmt.Printf("  7b: both have %d vertex, %d edges, %d faces; equivalent=%v\n",
		v, e, f, invariant.Equivalent(t3, t4))
}

func fig9() {
	fmt.Println("Fig 9 / Example 3.6: thematic(I) for Fig 1c.")
	db, err := thematic.FromInstance(spatial.Fig1c())
	check(err)
	fmt.Print(thematic.Describe(db))
	if err := thematic.Validate(db); err != nil {
		fmt.Println("  validate:", err)
	} else {
		fmt.Println("  validate: ok")
	}
}

func fig10() {
	fmt.Println("Fig 10: genericity of the languages — the invariant (and thus")
	fmt.Println("every query answered on it) is generic for every standard map:")
	base := spatial.Fig1c()
	t0, err := invariant.New(base)
	check(err)
	for _, m := range xform.StandardMaps() {
		img, err := xform.Apply(m, base)
		if err != nil {
			fmt.Printf("  %-16s (not applicable to this instance)\n", m.Name)
			continue
		}
		t1, err := invariant.New(img)
		check(err)
		fmt.Printf("  %-16s group=%s generic=%v\n", m.Name, m.Group, invariant.Equivalent(t0, t1))
	}
}

func fig11() {
	fmt.Println("Fig 11 / Theorem 4.4 witnesses:")
	// isRect is expressible with Rect* quantifiers: witnessed here by the
	// class predicates; QRegion separations shown via class invariance.
	fmt.Println("  (-) FO(Rect*,·) expresses 'r is a rectangle' (Thm 4.4 (-)): see region.IsRectangle")
	fmt.Println("  Strictness on topological fragments (Thm 4.4): cell language separates")
	fmt.Println("  Fig 1a/1b and 1c/1d (see fig1), which Boolean 4-intersection cannot:")
	pairs := []struct{ a, b *spatial.Instance }{
		{spatial.Fig1a(), spatial.Fig1b()},
		{spatial.Fig1c(), spatial.Fig1d()},
	}
	for _, p := range pairs {
		eq, err := fourint.EquivalentInstances(p.a, p.b)
		check(err)
		fmt.Printf("    boolean-4-intersection-indistinguishable=%v\n", eq)
	}
}

func fig14() {
	fmt.Println("Fig 14: the S-invariant distinguishes alignment that the")
	fmt.Println("topological invariant cannot.")
	i := spatial.New()
	check(addRect(i, "A", 0, 0, 4, 4))
	check(addRect(i, "B", 8, 6, 12, 10)) // offset in y
	ip := spatial.New()
	check(addRect(ip, "A", 0, 0, 4, 4))
	check(addRect(ip, "B", 8, 0, 12, 4)) // aligned in y
	t1, err := invariant.New(i)
	check(err)
	t2, err := invariant.New(ip)
	check(err)
	s1, err := invariant.SInvariant(i)
	check(err)
	s2, err := invariant.SInvariant(ip)
	check(err)
	fmt.Printf("  H-equivalent=%v, S-invariants equivalent=%v\n",
		invariant.Equivalent(t1, t2), invariant.Equivalent(s1, s2))
	v1, e1, f1 := s1.Stats()
	v2, e2, f2 := s2.Stats()
	fmt.Printf("  S_I cells: offset=(%d,%d,%d) aligned=(%d,%d,%d)\n", v1, e1, f1, v2, e2, f2)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func addRect(in *spatial.Instance, name string, x1, y1, x2, y2 int64) error {
	return in.Add(name, region.MustRect(x1, y1, x2, y2))
}

func arrangeOf(in *spatial.Instance) (*arrange.Arrangement, error) {
	return arrange.Build(in)
}
