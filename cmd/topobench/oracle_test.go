package main

import (
	"fmt"
	"math/rand"
	"testing"

	"topodb"
)

func load(t *testing.T, rs []rect) *topodb.Instance {
	t.Helper()
	db := topodb.NewInstance()
	err := db.Apply(func(tx *topodb.Txn) error {
		for _, r := range rs {
			if err := tx.AddRect(r.Name, r.X1, r.Y1, r.X2, r.Y2); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// checkPair compares the oracle with topodb on a, b in both orders, and
// the cell query at refinement k.
func checkPair(t *testing.T, db *topodb.Instance, a, b rect, k int) {
	t.Helper()
	for _, p := range [][2]rect{{a, b}, {b, a}} {
		got, err := db.Relate(p[0].Name, p[1].Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := relation(p[0], p[1]); got.String() != want {
			t.Errorf("relate(%v, %v) = %s, oracle says %s", p[0], p[1], got, want)
		}
	}
	ok, err := db.QueryRefined(cellQuery(a.Name, b.Name), k)
	if err != nil {
		t.Fatal(err)
	}
	if want := interiorsOverlap(a, b); ok != want {
		t.Errorf("query(%v, %v, k=%d) = %v, oracle says %v", a, b, k, ok, want)
	}
}

// TestOracleMatchesTopodb checks the oracle against topodb on small
// seeded scatters, whose placed pairs cover all eight relations.
func TestOracleMatchesTopodb(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		s := newScatter(seed, 64)
		db := load(t, s.Rects)
		rng := rand.New(rand.NewSource(seed))
		pairs := append([][2]int(nil), s.Pairs...)
		for i := 0; i < 40; i++ {
			pairs = append(pairs, [2]int{rng.Intn(len(s.Rects)), rng.Intn(len(s.Rects))})
		}
		for i, p := range pairs {
			a, b := s.Rects[p[0]], s.Rects[p[1]]
			seen[relation(a, b)] = true
			checkPair(t, db, a, b, (i%2)*refineK)
		}
	}
	for _, rel := range []string{relDisjoint, relMeet, relEqual, relOverlap, relInside, relContains, relCoveredBy, relCovers} {
		if !seen[rel] {
			t.Errorf("no checked pair is in relation %s", rel)
		}
	}
}

// TestEditsMatchOracle applies both edit streams and checks each added
// rect against the oracle, and that no edit grows the bounding box.
func TestEditsMatchOracle(t *testing.T) {
	box := func(rs []rect) rect {
		b := rs[0]
		for _, r := range rs[1:] {
			b.X1, b.Y1, b.X2, b.Y2 = min(b.X1, r.X1), min(b.Y1, r.Y1), max(b.X2, r.X2), max(b.Y2, r.Y2)
		}
		return b
	}
	for _, side := range []int{1, 3} {
		m := newMetro(7, 120, side)
		db := load(t, m.Rects)
		before := box(m.Rects)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 12; i++ {
			added, nbr := m.edit(rng, fmt.Sprintf("E%04d", i), i)
			if !within(added, before) {
				t.Errorf("side %d: edit %v leaves the bounding box %v", side, added, before)
			}
			if err := db.AddRect(added.Name, added.X1, added.Y1, added.X2, added.Y2); err != nil {
				t.Fatal(err)
			}
			checkPair(t, db, added, nbr, 0)
		}
	}
	s := newScatter(7, 48)
	db := load(t, s.Rects)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		added := s.edit(rng, fmt.Sprintf("W%04d", i))
		if !within(added, s.Box) {
			t.Errorf("scatter edit %v leaves the bounding box %v", added, s.Box)
		}
		if err := db.AddRect(added.Name, added.X1, added.Y1, added.X2, added.Y2); err != nil {
			t.Fatal(err)
		}
		checkPair(t, db, added, s.Rects[i], refineK)
	}
}
