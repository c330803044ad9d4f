package arrange

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// Interning canonicalizes: handle equality must coincide exactly with set
// equality, across arbitrary With/Union construction orders and indices
// far past the old 256-region ceiling.
func TestOwnerPoolCanonical(t *testing.T) {
	p := NewOwnerPool()
	if !NoOwners.IsEmpty() || p.Count(NoOwners) != 0 || len(p.Members(NoOwners)) != 0 {
		t.Fatal("handle 0 must be the empty set")
	}

	a := p.With(p.With(NoOwners, 3), 777)
	b := p.With(p.With(NoOwners, 777), 3)
	if a != b {
		t.Fatalf("same set, different handles: %d vs %d", a, b)
	}
	if got := p.Members(a); len(got) != 2 || got[0] != 3 || got[1] != 777 {
		t.Fatalf("Members = %v, want [3 777]", got)
	}
	if !p.Has(a, 777) || p.Has(a, 776) || p.Has(a, 100000) {
		t.Fatal("Has misreports membership")
	}

	// With on an existing member is the identity.
	if p.With(a, 3) != a {
		t.Fatal("With(existing member) must return the same handle")
	}
	// Union identities.
	if p.Union(a, NoOwners) != a || p.Union(NoOwners, a) != a || p.Union(a, a) != a {
		t.Fatal("Union identities broken")
	}
	// Union vs element-wise construction.
	c := p.With(NoOwners, 5000)
	u := p.Union(a, c)
	if w := p.With(p.With(p.With(NoOwners, 5000), 777), 3); w != u {
		t.Fatalf("union %d != element-wise build %d", u, w)
	}
	if p.Count(u) != 3 {
		t.Fatalf("Count(union) = %d, want 3", p.Count(u))
	}

	// Randomized: sets built in shuffled orders intern to equal handles,
	// and distinct sets never collide.
	rng := rand.New(rand.NewSource(42))
	seen := map[Owners][]int{}
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		idx := make([]int, k)
		for i := range idx {
			idx[i] = rng.Intn(2048)
		}
		h1 := NoOwners
		for _, i := range idx {
			h1 = p.With(h1, i)
		}
		rng.Shuffle(k, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		h2 := NoOwners
		for _, i := range idx {
			h2 = p.With(h2, i)
		}
		if h1 != h2 {
			t.Fatalf("trial %d: order-dependent handles %d vs %d for %v", trial, h1, h2, idx)
		}
		members := p.Members(h1)
		if prev, ok := seen[h1]; ok {
			if len(prev) != len(members) {
				t.Fatalf("handle %d reused for different sets", h1)
			}
			for i := range prev {
				if prev[i] != members[i] {
					t.Fatalf("handle %d reused for different sets: %v vs %v", h1, prev, members)
				}
			}
		}
		seen[h1] = members
	}
}

// A clone preserves every handle's meaning and diverges from its source
// on later interns: extending the clone must not leak into the original
// (the Insert contract — parent pools are never written).
func TestOwnerPoolCloneIsolation(t *testing.T) {
	p := NewOwnerPool()
	a := p.With(NoOwners, 300)
	b := p.With(a, 9)
	q := p.Clone()
	if q.Len() != p.Len() {
		t.Fatalf("clone has %d sets, source %d", q.Len(), p.Len())
	}
	for _, h := range []Owners{NoOwners, a, b} {
		pm, qm := p.Members(h), q.Members(h)
		if len(pm) != len(qm) {
			t.Fatalf("handle %d changed meaning across Clone", h)
		}
		for i := range pm {
			if pm[i] != qm[i] {
				t.Fatalf("handle %d changed meaning across Clone", h)
			}
		}
	}
	before := p.Len()
	c := q.With(b, 1500) // new set interned into the clone only
	if p.Len() != before {
		t.Fatal("interning into the clone mutated the source pool")
	}
	if q.Count(c) != 3 || !q.Has(c, 1500) {
		t.Fatal("clone extension wrong")
	}
	// The same set interned into the source gets the same next handle:
	// deterministic numbering is what keeps rebuilt arrangements
	// byte-identical.
	if d := p.With(b, 1500); d != c {
		t.Fatalf("deterministic numbering broken: source %d vs clone %d", d, c)
	}
}

// SetRegionBudget swaps atomically and clamps nonsense.
func TestSetRegionBudgetClamp(t *testing.T) {
	old := SetRegionBudget(-5)
	if RegionBudget() != 1 {
		t.Fatalf("budget after SetRegionBudget(-5) = %d, want clamp to 1", RegionBudget())
	}
	if prev := SetRegionBudget(old); prev != 1 {
		t.Fatalf("swap returned %d, want 1", prev)
	}
	if RegionBudget() != old {
		t.Fatalf("budget not restored: %d vs %d", RegionBudget(), old)
	}
}

// remapAll is the interning oracle for appendMapped: it interns every set
// of src with its members mapped through the ascending index map regions
// (so mapped lists stay sorted) and returns the handle translation,
// indexed by src handle.
func (p *OwnerPool) remapAll(src *OwnerPool, regions []int) []Owners {
	out := make([]Owners, len(src.sets))
	for h, set := range src.sets {
		if h == int(NoOwners) {
			continue
		}
		mapped := make([]int32, 0, len(set))
		for _, ri := range set {
			mapped = append(mapped, int32(regions[ri]))
		}
		out[h] = p.intern(mapped)
	}
	return out
}

// samePool reports whether two pools hold equal member lists at every
// handle.
func samePool(p, q *OwnerPool) bool {
	if p.Len() != q.Len() {
		return false
	}
	for h := range p.sets {
		if fmt.Sprint(p.sets[h]) != fmt.Sprint(q.sets[h]) {
			return false
		}
	}
	return true
}

// stitchCase is an instance with its sharded artifact and their stitch.
type stitchCase struct {
	in *spatial.Instance
	sh *Sharded
	st *Arrangement
}

// multiShardStitches returns stitched multi-shard arrangements (box
// component plans) with their sharded artifacts and instances.
func multiShardStitches(t *testing.T) map[string]stitchCase {
	t.Helper()
	withShardThreshold(t, 0)
	out := map[string]stitchCase{}
	for name, in := range map[string]*spatial.Instance{
		"metro_plain":    workload.MetroGrid(36, 3, 0),
		"metro_straddle": workload.MetroGrid(48, 2, 50),
		"sparse_scatter": workload.SparseScatter(48),
		"nested_islands": nestedIslands(),
	} {
		sh, st := stitched(t, in)
		if sh.NumShards() < 2 {
			t.Fatalf("%s: %d shards, want several", name, sh.NumShards())
		}
		out[name] = stitchCase{in, sh, st}
	}
	return out
}

// Stitch appends every shard's owner sets instead of interning them. The
// stitched pool must hold, handle for handle, what interning each shard's
// mapped sets in shard order produces, and every stitched edge the handle
// interning gives its shard's set.
func TestStitchPoolMatchesInterning(t *testing.T) {
	for name, c := range multiShardStitches(t) {
		oracle := NewOwnerPool()
		var want []Owners
		for s, sub := range c.sh.Subs {
			ownerMap := oracle.remapAll(sub.Pool, c.sh.Plan.Members[s])
			for ei := range sub.Edges {
				want = append(want, ownerMap[sub.Edges[ei].Owners])
			}
		}
		if !samePool(c.st.Pool, oracle) {
			t.Fatalf("%s: stitched pool (%d sets) differs from interning (%d sets)", name, c.st.Pool.Len(), oracle.Len())
		}
		for ei := range c.st.Edges {
			if c.st.Edges[ei].Owners != want[ei] {
				t.Fatalf("%s: edge %d has handle %d, interning gives %d", name, ei, c.st.Edges[ei].Owners, want[ei])
			}
		}
		if c.st.Pool.index != nil {
			t.Fatalf("%s: the stitch built an interning index it never reads", name)
		}
	}
}

// A multi-shard stitch appends its shards' owner sets without an index. A
// clone of that pool must intern every existing set to its own handle —
// an index missing the appended sets would mint duplicates — and leave
// the source's index nil. Insert refuses the stitch as a parent: it is
// read-only and carries none of Insert's construction caches.
//
// Insert never writes its parent's pool: four concurrent Inserts into one
// parent, a cold build or an arrangement derived by an Insert that
// shifted every index, mint no duplicate set and each match the cold
// build (run under -race).
func TestInsertIntoStitchKeepsPoolCanonical(t *testing.T) {
	ctx := context.Background()
	for name, c := range multiShardStitches(t) {
		q := c.st.Pool.Clone()
		for h, set := range c.st.Pool.sets {
			if got := q.intern(append([]int32(nil), set...)); got != Owners(h) {
				t.Fatalf("%s: clone interns set %v of handle %d as %d", name, set, h, got)
			}
		}
		if c.st.Pool.index != nil {
			t.Fatalf("%s: Clone or intern on the clone wrote the source pool's index", name)
		}
		child := c.in.Clone()
		child.MustAdd("~", region.MustRect(0, 0, 1, 1))
		if _, err := Insert(ctx, c.st, child, "~"); err == nil {
			t.Fatalf("%s: Insert into a multi-shard stitch succeeded", name)
		}

		cold, err := Build(c.in)
		if err != nil {
			t.Fatal(err)
		}
		first := c.in.Names()[0] // sorts first, so its Insert shifts every index
		base, err := Build(subInstance(c.in, c.in.Names()[1:]))
		if err != nil {
			t.Fatal(err)
		}
		derived, err := Insert(ctx, base, c.in, first)
		if err != nil {
			t.Fatalf("%s: Insert %s: %v", name, first, err)
		}
		for kind, parent := range map[string]*Arrangement{"cold": cold, "derived": derived} {
			concurrentInserts(t, name+"/"+kind, parent, c.in)
		}
	}
}

// concurrentInserts runs four Inserts into parent, the arrangement of in,
// at once. Odd deltas sort first and shift every index, even ones sort
// last; each overlaps the first region's box edge so the parent's sets
// are unioned with the new region.
func concurrentInserts(t *testing.T, name string, parent *Arrangement, in *spatial.Instance) {
	t.Helper()
	box, _ := in.Box()
	b := in.MustExt(in.Names()[0]).Box()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			child := in.Clone()
			added := fmt.Sprintf("~%d", g)
			if g%2 == 1 {
				added = fmt.Sprintf("0%d", g)
			}
			child.MustAdd(added, region.MustPoly(geom.Ring{
				{X: b.MinX, Y: b.MinY}, {X: box.MaxX.Add(rat.One), Y: b.MinY},
				{X: box.MaxX.Add(rat.One), Y: box.MaxY.Add(rat.FromInt(int64(g + 1)))}, {X: b.MinX, Y: box.MaxY.Add(rat.FromInt(int64(g + 1)))},
			}))
			inc, err := Insert(context.Background(), parent, child, added)
			if err != nil {
				errs[g] = err
				return
			}
			seen := map[string]Owners{}
			for h, set := range inc.Pool.sets {
				k := fmt.Sprint(set)
				if prev, dup := seen[k]; dup {
					errs[g] = fmt.Errorf("handles %d and %d both hold %s", prev, h, k)
					return
				}
				seen[k] = Owners(h)
			}
			cold, err := Build(child)
			if err != nil {
				errs[g] = err
				return
			}
			if cellFingerprint(inc) != cellFingerprint(cold) || compFingerprint(inc) != compFingerprint(cold) {
				errs[g] = fmt.Errorf("Insert of %s diverges from the cold build", added)
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("%s: delta %d: %v", name, g, err)
		}
	}
}
