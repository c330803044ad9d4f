package main

import (
	"context"

	"topodb/internal/arrange"
	"topodb/internal/folang"
	"topodb/internal/fourint"
	"topodb/internal/invariant"
	"topodb/internal/region"
	"topodb/internal/spatial"
)

// replay holds its own generation chain of derived artifacts and derives
// them with the calls cache.go makes: lazily, from the parent generation
// when the parent materialized the same artifact, cold otherwise.
type replay struct {
	tr  *tracer
	cur *rgen
}

// rgen is one replay generation.
type rgen struct {
	in     *spatial.Instance // frozen
	parent *rgen             // the previous generation; cut when this one becomes a parent
	added  []string
	sh     *arrange.Sharded
	a      *arrange.Arrangement
	u      map[int]*folang.Universe
	t      *invariant.T
	tCold  bool // t was computed cold, so its canonical encoding minimizes every start
}

var bg = context.Background()

func newReplay(tr *tracer, rs []rect) (*replay, error) {
	in := spatial.New()
	for _, r := range rs {
		if err := in.Add(r.Name, region.MustRect(r.X1, r.Y1, r.X2, r.Y2)); err != nil {
			return nil, err
		}
	}
	g := &rgen{in: in, u: map[int]*folang.Universe{}}
	rp := &replay{tr: tr, cur: g}
	return rp, tr.do("arrange.cold_build", func() error {
		var err error
		if arrange.ShardingEnabled(in.Len()) {
			if g.sh, err = arrange.BuildSharded(bg, in); err == nil {
				g.a, err = arrange.Stitch(bg, g.sh)
			}
			return err
		}
		g.a, err = arrange.BuildCtx(bg, in)
		return err
	})
}

// add commits one rectangle as a new generation, cutting the chain to one
// generation back and releasing the old parent's provenance as cache.go's
// artifactCache.at does.
func (rp *replay) add(r rect) error {
	p := rp.cur
	return rp.tr.do("spatial.clone", func() error {
		in := p.in.Clone()
		if err := in.Add(r.Name, region.MustRect(r.X1, r.Y1, r.X2, r.Y2)); err != nil {
			return err
		}
		rp.cur = &rgen{in: in, parent: p, added: []string{r.Name}, u: map[int]*folang.Universe{}}
		p.parent = nil
		if p.a != nil {
			p.a.ClearProv()
		}
		if p.sh != nil {
			for _, sub := range p.sh.Subs {
				sub.ClearProv()
			}
		}
		for k, u := range p.u {
			if k > 0 {
				u.A.ClearProv()
			}
		}
		return nil
	})
}

func (rp *replay) sharded(g *rgen) (*arrange.Sharded, error) {
	if g.sh != nil {
		return g.sh, nil
	}
	if p := g.parent; p != nil && p.sh != nil {
		err := rp.tr.do("arrange.insert", func() (err error) {
			g.sh, err = arrange.InsertSharded(bg, p.sh, g.in, g.added...)
			return err
		})
		if err == nil {
			return g.sh, nil
		}
	}
	err := rp.tr.do("arrange.cold_build", func() (err error) {
		g.sh, err = arrange.BuildSharded(bg, g.in)
		return err
	})
	return g.sh, err
}

func (rp *replay) arrangement(g *rgen) (*arrange.Arrangement, error) {
	if g.a != nil {
		return g.a, nil
	}
	p := g.parent
	if arrange.ShardingEnabled(g.in.Len()) {
		sh, err := rp.sharded(g)
		if err != nil {
			return nil, err
		}
		if p != nil && p.sh != nil && p.a != nil {
			err = rp.tr.do("arrange.stitch", func() (err error) {
				g.a, err = arrange.StitchInc(bg, sh, p.sh, p.a)
				return err
			})
		} else {
			err = rp.tr.do("arrange.cold_build", func() (err error) {
				g.a, err = arrange.Stitch(bg, sh)
				return err
			})
		}
		return g.a, err
	}
	if p != nil && p.a != nil {
		err := rp.tr.do("arrange.insert", func() (err error) {
			g.a, err = arrange.Insert(bg, p.a, g.in, g.added...)
			return err
		})
		if err == nil {
			return g.a, nil
		}
	}
	err := rp.tr.do("arrange.cold_build", func() (err error) {
		g.a, err = arrange.BuildCtx(bg, g.in)
		return err
	})
	return g.a, err
}

func (rp *replay) universe(g *rgen, k int) (*folang.Universe, error) {
	if u := g.u[k]; u != nil {
		return u, nil
	}
	var pu *folang.Universe
	if g.parent != nil {
		pu = g.parent.u[k]
	}
	var u *folang.Universe
	var err error
	if k == 0 {
		var a *arrange.Arrangement
		if a, err = rp.arrangement(g); err != nil {
			return nil, err
		}
		if pu != nil {
			err = rp.tr.do("folang.universe", func() (err error) {
				u, err = folang.InsertUniverse(bg, pu, a, g.in)
				return err
			})
		}
		if pu == nil || err != nil {
			err = rp.tr.do("folang.universe_cold", func() (err error) {
				u, err = folang.NewUniverseFromArrangementCtx(bg, a, g.in)
				return err
			})
		}
	} else {
		if pu != nil {
			err = rp.tr.do("folang.universe_refined", func() (err error) {
				u, err = folang.InsertUniverseRefined(bg, pu, g.in, k, g.added...)
				return err
			})
		}
		if pu == nil || err != nil {
			err = rp.tr.do("folang.universe_refined_cold", func() (err error) {
				u, err = folang.NewUniverseCtx(bg, g.in, k)
				return err
			})
		}
	}
	if err != nil {
		return nil, err
	}
	g.u[k] = u
	return u, nil
}

func (rp *replay) relate(a, b string) (string, error) {
	g := rp.cur
	var rel fourint.Relation
	if arrange.ShardingEnabled(g.in.Len()) {
		// As Snapshot.Relate: only the shard holding both regions is read;
		// regions in different shards are disjoint outright.
		sh, err := rp.sharded(g)
		if err != nil {
			return "", err
		}
		err = rp.tr.do("fourint.relate", func() (err error) {
			ri, rj := sh.Plan.RegionIndex(a), sh.Plan.RegionIndex(b)
			c := sh.MatrixShard(ri, rj)
			if c < 0 {
				rel = fourint.Disjoint
				return nil
			}
			rel, err = fourint.Classify(fourint.MatrixOf(sh.Subs[c], sh.Plan.LocalIndex(ri), sh.Plan.LocalIndex(rj)))
			return err
		})
		return rel.String(), err
	}
	arr, err := rp.arrangement(g)
	if err != nil {
		return "", err
	}
	err = rp.tr.do("fourint.relate", func() (err error) {
		rel, err = fourint.Classify(fourint.MatrixOf(arr, arr.RegionIndex(a), arr.RegionIndex(b)))
		return err
	})
	return rel.String(), err
}

func (rp *replay) eval(src string, k int) (bool, error) {
	var f folang.Formula
	err := rp.tr.do("folang.parse", func() (err error) {
		f, err = folang.Parse(src)
		return err
	})
	if err != nil {
		return false, err
	}
	u, err := rp.universe(rp.cur, k)
	if err != nil {
		return false, err
	}
	var ok bool
	err = rp.tr.do("folang.eval", func() (err error) {
		ok, err = folang.NewEvaluator(u).EvalCtx(bg, f)
		return err
	})
	return ok, err
}

func (rp *replay) canonical() (string, error) {
	g := rp.cur
	if g.t == nil {
		a, err := rp.arrangement(g)
		if err != nil {
			return "", err
		}
		if p := g.parent; p != nil && p.t != nil {
			err = rp.tr.do("invariant.delta", func() (err error) {
				g.t, err = invariant.FromArrangementDelta(bg, a, p.t)
				return err
			})
		}
		if g.t == nil {
			g.tCold = true
			err = rp.tr.do("invariant.cold", func() (err error) {
				g.t, err = invariant.FromArrangementCtx(bg, a)
				return err
			})
		}
		if err != nil {
			return "", err
		}
	}
	name := "invariant.canonical"
	if g.tCold {
		name = "invariant.cold_canonical"
	}
	var s string
	err := rp.tr.do(name, func() error {
		s = g.t.Canonical()
		return nil
	})
	return s, err
}
