package arrange

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/rat"
	"topodb/internal/region"
	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// shardEquivCases are the workloads the sharded pipeline must reproduce
// byte-for-byte: many tiny shards, a single giant shard, nested shards,
// shared borders, and the metro mosaics sharding is built for.
func shardEquivCases() map[string]*spatial.Instance {
	return map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(4),
		"overlap_chain":  workload.OverlapChain(8),
		"nested_rings":   workload.NestedRings(4),
		"county_mesh":    workload.CountyMesh(3),
		"lens_stack":     workload.LensStack(5),
		"sparse_scatter": workload.SparseScatter(48),
		"city_blocks":    workload.CityBlocks(3),
		"many_regions":   workload.ManyRegions(64),
		"metro_plain":    workload.MetroGrid(36, 3, 0),
		"metro_straddle": workload.MetroGrid(48, 2, 50),
		"metro_arterial": workload.MetroGrid(32, 2, 100),
		"nested_islands": nestedIslands(),
		"single_region":  workload.RectGrid(1),
	}
}

// frame adds four bars enclosing a courtyard: the bars' boxes pairwise
// touch (one shard), but the courtyard — a bounded all-Exterior face — is
// outside every bar's box, so whole foreign shards can nest inside it.
func frame(in *spatial.Instance, name string, x1, y1, x2, y2 int64) {
	in.MustAdd(name+"_L", region.MustRect(x1, y1, x1+2, y2))
	in.MustAdd(name+"_R", region.MustRect(x2-2, y1, x2, y2))
	in.MustAdd(name+"_B", region.MustRect(x1, y1, x2, y1+2))
	in.MustAdd(name+"_T", region.MustRect(x1, y2-2, x2, y2))
}

// nestedIslands puts whole clusters inside another cluster's faces — the
// stitcher's hardest case: shard nesting resolution and courtyard sample
// recasting, two levels deep.
func nestedIslands() *spatial.Instance {
	in := spatial.New()
	frame(in, "Outer", 0, 0, 100, 100)
	frame(in, "Mid", 10, 10, 60, 60)
	in.MustAdd("IslA1", region.MustRect(20, 20, 30, 30))
	in.MustAdd("IslA2", region.MustRect(28, 28, 40, 36)) // overlaps IslA1: 2-region island
	in.MustAdd("IslB", region.MustRect(70, 70, 90, 90))  // inside Outer, outside Mid
	in.MustAdd("Far", region.MustRect(200, 0, 210, 10))  // outside everything
	return in
}

// stitched builds the sharded artifact and stitches it back to a global
// arrangement, failing the test on any error.
func stitched(t *testing.T, in *spatial.Instance) (*Sharded, *Arrangement) {
	t.Helper()
	sh, err := BuildSharded(context.Background(), in)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	a, err := Stitch(context.Background(), sh)
	if err != nil {
		t.Fatalf("Stitch: %v", err)
	}
	return sh, a
}

// withShardThreshold sets the shard threshold for one test, restoring it
// after.
func withShardThreshold(t *testing.T, n int) {
	t.Helper()
	old := SetShardThreshold(n)
	t.Cleanup(func() { SetShardThreshold(old) })
}

// forEachPlan runs f once with every instance planned as one shard and
// once with every instance planned as box-overlap components (threshold
// 0), the two plans the sharded entry points choose between.
func forEachPlan(t *testing.T, f func(t *testing.T)) {
	for _, plan := range []struct {
		name      string
		threshold int
	}{{"one_shard", -1}, {"components", 0}} {
		t.Run(plan.name, func(t *testing.T) {
			withShardThreshold(t, plan.threshold)
			f(t)
		})
	}
}

// faceSamples fingerprints the face samples (which cellFingerprint leaves
// out): the multiset of (label, sample point) pairs must match too, since
// downstream query evaluation reads samples.
func faceSamples(a *Arrangement) string {
	rows := make([]string, 0, len(a.Faces))
	for fi := range a.Faces {
		f := &a.Faces[fi]
		rows = append(rows, fmt.Sprintf("%v|%s|%s", f.Bounded, f.Label.Key(), f.Sample.Key()))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func locLabel(a *Arrangement, l Loc) Label {
	switch l.Kind {
	case LocVertex:
		return a.Verts[l.Index].Label
	case LocEdge:
		return a.Edges[l.Index].Label
	default:
		return a.Faces[l.Index].Label
	}
}

func TestShardedMatchesMonolithic(t *testing.T) {
	withShardThreshold(t, 0) // below 2048 regions the plan would be one shard
	for name, in := range shardEquivCases() {
		t.Run(name, func(t *testing.T) {
			mono, err := Build(in)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			sh, st := stitched(t, in)
			if cellFingerprint(st) != cellFingerprint(mono) || compFingerprint(st) != compFingerprint(mono) {
				t.Fatalf("stitched cell fingerprint diverges from monolithic (%d shards)", sh.NumShards())
			}
			if got, want := faceSamples(st), faceSamples(mono); got != want {
				t.Fatalf("stitched face samples diverge from monolithic:\n%s\n--- want ---\n%s", got, want)
			}
			if st.Exterior != len(st.Faces)-1 {
				t.Fatalf("stitched exterior not last: %d of %d", st.Exterior, len(st.Faces))
			}
			// Point location on the stitched arrangement must agree with the
			// monolithic cell labels on a probe lattice spanning past the
			// bounding box.
			step := int64(3)
			for x := int64(-1); x < 60; x += step {
				for y := int64(-1); y < 60; y += step {
					p := geom.Pt{X: rat.FromInt(x), Y: rat.FromInt(y)}
					want := locLabel(mono, mono.Locate(p))
					got := locLabel(st, st.Locate(p))
					if got.Key() != want.Key() {
						t.Fatalf("Locate(%s): stitched label %s, monolithic %s", p, got.Key(), want.Key())
					}
				}
			}
		})
	}
}

func TestStitchSingleShardAliases(t *testing.T) {
	in := workload.OverlapChain(6)
	sh, st := stitched(t, in)
	if sh.NumShards() != 1 {
		t.Fatalf("OverlapChain split into %d shards", sh.NumShards())
	}
	if st != sh.Subs[0] {
		t.Fatalf("single-shard stitch should alias the sub-arrangement")
	}
}

func TestMatrixShardCrossShardDisjoint(t *testing.T) {
	withShardThreshold(t, 0)
	in := workload.MetroGrid(36, 3, 0)
	sh, _ := stitched(t, in)
	if sh.NumShards() < 2 {
		t.Fatalf("want multiple shards, got %d", sh.NumShards())
	}
	boxes := in.Boxes()
	for ri := 0; ri < len(sh.Names); ri += 7 {
		for rj := 0; rj < len(sh.Names); rj += 5 {
			c := sh.MatrixShard(ri, rj)
			if (c >= 0) != (sh.Plan.Shard[ri] == sh.Plan.Shard[rj]) {
				t.Fatalf("MatrixShard(%d,%d)=%d inconsistent with plan", ri, rj, c)
			}
			if c < 0 && boxes[ri].Intersects(boxes[rj]) {
				// Cross-shard pairs must be genuinely box-disjoint so the
				// Disjoint shortcut is exact.
				t.Fatalf("cross-shard regions %d,%d have intersecting boxes", ri, rj)
			}
		}
	}
}

func TestPlanShardsStraddleMerges(t *testing.T) {
	base := PlanShards(workload.MetroGrid(64, 2, 0))
	merged := PlanShards(workload.MetroGrid(64, 2, 100))
	if base.NumShards() != 16 {
		t.Fatalf("straddle-free 16-district mosaic: want 16 shards, got %d", base.NumShards())
	}
	if merged.NumShards() >= base.NumShards() {
		t.Fatalf("straddle=100 should merge shards: %d vs %d", merged.NumShards(), base.NumShards())
	}
	// Determinism: same parameters, same plan.
	again := PlanShards(workload.MetroGrid(64, 2, 100))
	if fmt.Sprint(again.Members) != fmt.Sprint(merged.Members) || fmt.Sprint(again.Shard) != fmt.Sprint(merged.Shard) {
		t.Fatalf("PlanShards not deterministic")
	}
}

func TestInsertShardedChainedRandomOrders(t *testing.T) {
	for name, full := range map[string]*spatial.Instance{
		"metro":   workload.MetroGrid(48, 2, 50),
		"scatter": workload.SparseScatter(40),
	} {
		t.Run(name, func(t *testing.T) {
			forEachPlan(t, func(t *testing.T) {
				names := full.Names()
				for seed := int64(1); seed <= 3; seed++ {
					rng := rand.New(rand.NewSource(seed))
					order := rng.Perm(len(names))
					cur := spatial.New()
					for _, oi := range order[:len(names)/3] {
						cur.MustAdd(names[oi], full.MustExt(names[oi]))
					}
					sh, err := BuildSharded(context.Background(), cur)
					if err != nil {
						t.Fatalf("seed %d: BuildSharded: %v", seed, err)
					}
					rest := order[len(names)/3:]
					for len(rest) > 0 {
						k := 1 + rng.Intn(5)
						if k > len(rest) {
							k = len(rest)
						}
						added := make([]string, 0, k)
						for _, oi := range rest[:k] {
							added = append(added, names[oi])
							cur.MustAdd(names[oi], full.MustExt(names[oi]))
						}
						rest = rest[k:]
						next, err := InsertSharded(context.Background(), sh, cur, added...)
						if err != nil {
							t.Fatalf("seed %d: InsertSharded(+%d): %v", seed, k, err)
						}
						sh = next
					}
					mono, err := Build(cur)
					if err != nil {
						t.Fatalf("seed %d: Build: %v", seed, err)
					}
					st, err := Stitch(context.Background(), sh)
					if err != nil {
						t.Fatalf("seed %d: Stitch: %v", seed, err)
					}
					if cellFingerprint(st) != cellFingerprint(mono) || compFingerprint(st) != compFingerprint(mono) {
						t.Fatalf("seed %d: chained InsertSharded fingerprint diverges from monolithic", seed)
					}
					// Samples after incremental maintenance are valid interior
					// points but not byte-pinned (true of monolithic Insert
					// too): check them against the geometry instead.
					validateArrangement(t, st, cur)
				}
			})
		})
	}
}

func TestInsertShardedAliasesUntouchedShards(t *testing.T) {
	withShardThreshold(t, 0)
	in := workload.MetroGrid(36, 3, 0) // 4 disjoint districts
	sh, err := BuildSharded(context.Background(), in)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	next := in.Clone()
	next.MustAdd("Zz_far", region.MustRect(10000, 10000, 10004, 10004))
	sh2, err := InsertSharded(context.Background(), sh, next, "Zz_far")
	if err != nil {
		t.Fatalf("InsertSharded: %v", err)
	}
	aliased := 0
	for _, sub := range sh2.Subs {
		for _, old := range sh.Subs {
			if sub == old {
				aliased++
			}
		}
	}
	if aliased != sh.NumShards() {
		t.Fatalf("want all %d untouched shards aliased, got %d", sh.NumShards(), aliased)
	}
}

func TestBuildShardedCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildSharded(ctx, workload.MetroGrid(36, 3, 0)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	sh, err := BuildSharded(context.Background(), workload.MetroGrid(36, 3, 0))
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	next := workload.MetroGrid(36, 3, 0)
	next.MustAdd("Zz_far", region.MustRect(10000, 10000, 10004, 10004))
	if _, err := InsertSharded(ctx, sh, next, "Zz_far"); !errors.Is(err, context.Canceled) {
		t.Fatalf("InsertSharded: want context.Canceled, got %v", err)
	}
}

// Below the shard threshold the plan is one shard: its sub-arrangement is
// the cold build of the whole instance, its stitch is that sub, and a
// chained InsertSharded + StitchInc hands back the one sub's own Insert
// provenance, linked to the parent's stitch.
func TestOneShardPlanBelowThreshold(t *testing.T) {
	ctx := context.Background()
	full := workload.SparseScatter(40)
	names := full.Names()
	in := subInstance(full, names[:39])
	sh, err := BuildSharded(ctx, in)
	if err != nil {
		t.Fatalf("BuildSharded: %v", err)
	}
	if sh.NumShards() != 1 || PlanShards(in).NumShards() < 2 {
		t.Fatalf("want one shard of a %d-component scatter, got %d", PlanShards(in).NumShards(), sh.NumShards())
	}
	cold, err := BuildCtx(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if cellFingerprint(sh.Subs[0]) != cellFingerprint(cold) || compFingerprint(sh.Subs[0]) != compFingerprint(cold) {
		t.Fatal("one-shard sub diverges from BuildCtx")
	}
	st, err := Stitch(ctx, sh)
	if err != nil || st != sh.Subs[0] {
		t.Fatalf("one-shard stitch is not its sub (err %v)", err)
	}

	in.MustAdd(names[39], full.MustExt(names[39]))
	next, err := InsertSharded(ctx, sh, in, names[39])
	if err != nil {
		t.Fatalf("InsertSharded: %v", err)
	}
	if next.NumShards() != 1 {
		t.Fatalf("child plan has %d shards, want 1", next.NumShards())
	}
	own := next.Subs[0].Prov()
	inc, err := StitchInc(ctx, next, sh, st)
	if err != nil {
		t.Fatalf("StitchInc: %v", err)
	}
	if inc != next.Subs[0] {
		t.Fatal("one-shard StitchInc is not its sub")
	}
	p := inc.Prov()
	if p == nil || p.Parent != st {
		t.Fatal("one-shard StitchInc does not link to the parent stitch")
	}
	if p != own {
		t.Fatal("one-shard StitchInc composed a copy of the sub's own Insert provenance")
	}
	validateProvenance(t, inc, st, p)
	cold, err = BuildCtx(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if cellFingerprint(inc) != cellFingerprint(cold) || compFingerprint(inc) != compFingerprint(cold) {
		t.Fatal("one-shard InsertSharded diverges from BuildCtx")
	}
}

// A one-shard plan hands the caller's instance itself to the build, so
// the arrangement must own its names: adding to the instance in place
// afterwards leaves them unchanged.
func TestBuildOwnsItsNames(t *testing.T) {
	ctx := context.Background()
	in := workload.SparseScatter(12)
	want := append([]string(nil), in.Names()...)
	sh, err := BuildSharded(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	a := sh.Subs[0]
	in.MustAdd("A_first", region.MustRect(-10, -10, -8, -8)) // sorts first: shifts every name
	next, err := InsertSharded(ctx, sh, in, "A_first")
	if err != nil {
		t.Fatal(err)
	}
	in.MustAdd("AA", region.MustRect(-20, -20, -18, -18))
	for _, got := range [][]string{a.Names, sh.Names, next.Subs[0].Names[1:]} {
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("names moved with the instance: %v, want %v", got, want)
		}
	}
}

// The generation that crosses the shard threshold has a one-shard parent
// plan and a component child plan, whose shards are pieces of the parent
// shard rather than unions of parent shards: each such shard must build
// cold, and the result must match a cold build.
func TestInsertShardedCrossesThreshold(t *testing.T) {
	ctx := context.Background()
	full := workload.SparseScatter(40)
	names := full.Names()
	in := subInstance(full, names[:39])
	withShardThreshold(t, 40)
	sh, err := BuildSharded(ctx, in)
	if err != nil || sh.NumShards() != 1 {
		t.Fatalf("parent: %d shards, err %v; want one shard", sh.NumShards(), err)
	}
	st, err := Stitch(ctx, sh)
	if err != nil {
		t.Fatal(err)
	}
	in.MustAdd(names[39], full.MustExt(names[39]))
	next, err := InsertSharded(ctx, sh, in, names[39])
	if err != nil {
		t.Fatalf("InsertSharded: %v", err)
	}
	if next.NumShards() < 2 {
		t.Fatalf("child plan has %d shards, want box components", next.NumShards())
	}
	inc, err := StitchInc(ctx, next, sh, st)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Prov() != nil {
		t.Fatal("the threshold-crossing stitch links to the one-shard parent")
	}
	cold, err := BuildCtx(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	if cellFingerprint(inc) != cellFingerprint(cold) || compFingerprint(inc) != compFingerprint(cold) {
		t.Fatal("threshold-crossing InsertSharded diverges from BuildCtx")
	}
}

// deltaRegion returns a random added region for the derived-plan
// property, placed against cur's region boxes: one reaching right out of a
// random region's box (bridging a belt into the next component or ending
// in empty space), the union box of two random regions (bridging every
// component between them), one past the instance box, or one touching a
// random region's box only along its closed right edge or at its top-right
// corner.
func deltaRegion(rng *rand.Rand, cur *spatial.Instance) region.Region {
	names := cur.Names()
	b := cur.MustExt(names[rng.Intn(len(names))]).Box()
	w, h := b.MaxX.Sub(b.MinX), b.MaxY.Sub(b.MinY)
	half := rat.FromFrac(1, 2)
	var lo, hi geom.Pt
	switch rng.Intn(5) {
	case 0: // reach
		reach := rat.FromFrac(int64(1+rng.Intn(6)), 2)
		lo = geom.Pt{X: b.MaxX.Sub(w.Mul(half)), Y: b.MinY}
		hi = geom.Pt{X: b.MaxX.Add(w.Mul(reach)), Y: b.MinY.Add(h.Mul(half))}
	case 1: // bridge
		u := b.Union(cur.MustExt(names[rng.Intn(len(names))]).Box())
		lo, hi = geom.Pt{X: u.MinX, Y: u.MinY}, geom.Pt{X: u.MaxX, Y: u.MaxY}
	case 2: // empty space
		all, _ := cur.Box()
		x := all.MaxX.Add(rat.FromInt(int64(2 + rng.Intn(5))))
		lo, hi = geom.Pt{X: x, Y: all.MinY}, geom.Pt{X: x.Add(rat.One), Y: all.MinY.Add(rat.One)}
	case 3: // closed right edge
		lo, hi = geom.Pt{X: b.MaxX, Y: b.MinY}, geom.Pt{X: b.MaxX.Add(w), Y: b.MaxY}
	default: // top-right corner
		lo, hi = geom.Pt{X: b.MaxX, Y: b.MaxY}, geom.Pt{X: b.MaxX.Add(w), Y: b.MaxY.Add(h)}
	}
	r, err := region.NewRect(lo.X, lo.Y, hi.X, hi.Y)
	if err != nil {
		panic(err)
	}
	return r
}

// checkShardBoxes checks the premise derivePlan's prefilter rests on:
// every shard's sub-arrangement box is the union of its members' boxes,
// whether the sub was built cold, derived by Insert or aliased.
func checkShardBoxes(t *testing.T, sh *Sharded, in *spatial.Instance) {
	t.Helper()
	for c, members := range sh.Plan.Members {
		want := in.MustExt(sh.Names[members[0]]).Box()
		for _, ri := range members[1:] {
			want = want.Union(in.MustExt(sh.Names[ri]).Box())
		}
		if got := sh.Subs[c].bbox; !got.MinX.Equal(want.MinX) || !got.MinY.Equal(want.MinY) ||
			!got.MaxX.Equal(want.MaxX) || !got.MaxY.Equal(want.MaxY) {
			t.Fatalf("shard %d: sub box %v, union of member boxes %v", c, got, want)
		}
	}
}

// On component plans InsertSharded derives the child's plan from the
// parent's (derivePlan) instead of re-planning the instance. The derived
// plan must equal the cold planner's, field for field, for every workload
// generator under chained random deltas of 1–8 regions: the generator's
// own regions, regions bridging components, regions in empty space and
// regions touching a box only along a closed edge or at a corner, with
// names sorting anywhere among the parent's. Chained stitches must still
// match the cold build.
func TestDerivedPlanMatchesCold(t *testing.T) {
	withShardThreshold(t, 0)
	ctx := context.Background()
	cases := map[string]*spatial.Instance{
		"rect_grid":      workload.RectGrid(4),
		"overlap_chain":  workload.OverlapChain(8),
		"nested_rings":   workload.NestedRings(4),
		"county_mesh":    workload.CountyMesh(3),
		"lens_stack":     workload.LensStack(5),
		"sparse_scatter": workload.SparseScatter(48),
		"city_blocks":    workload.CityBlocks(3),
		"many_regions":   workload.ManyRegions(64),
		"circle_pair":    workload.CirclePair(12),
		"metro_plain":    workload.MetroGrid(36, 3, 0),
		"metro_straddle": workload.MetroGrid(48, 2, 50),
		"metro_arterial": workload.MetroGrid(32, 2, 100),
		"nested_islands": nestedIslands(),
	}
	merges := 0
	for name, full := range cases {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			for trial := 0; trial < 6; trial++ {
				names := full.Names()
				order := rng.Perm(len(names))
				var pending []string // the generator's own regions, held back as deltas
				for _, oi := range order[:rng.Intn(min(5, len(names)))] {
					pending = append(pending, names[oi])
				}
				cur := subInstance(full, without(names, pending))
				sh, err := BuildSharded(ctx, cur)
				if err != nil {
					t.Fatalf("trial %d: BuildSharded: %v", trial, err)
				}
				for step := 0; step < 3; step++ {
					k := 1 + rng.Intn(8)
					child := cur.Clone()
					var added []string
					for len(added) < k && len(pending) > 0 {
						added = append(added, pending[0])
						child.MustAdd(pending[0], full.MustExt(pending[0]))
						pending = pending[1:]
					}
					for len(added) < k {
						n := fmt.Sprintf("%c%d_%d_%d", "0N~"[rng.Intn(3)], trial, step, len(added))
						child.MustAdd(n, deltaRegion(rng, cur))
						added = append(added, n)
					}
					next, err := InsertSharded(ctx, sh, child, added...)
					if err != nil {
						t.Fatalf("trial %d step %d: InsertSharded(+%d): %v", trial, step, k, err)
					}
					want := PlanShardsBoxes(child.Names(), child.Boxes())
					if !reflect.DeepEqual(next.Plan, want) {
						t.Fatalf("trial %d step %d: derived plan\n%+v\ncold plan\n%+v", trial, step, next.Plan, want)
					}
					checkShardBoxes(t, next, child)
					for _, members := range next.Plan.Members {
						parents := map[int]bool{}
						for _, ri := range members {
							if pj := sh.Plan.RegionIndex(next.Names[ri]); pj >= 0 {
								parents[sh.Plan.Shard[pj]] = true
							}
						}
						if len(parents) > 1 {
							merges++
						}
					}
					sh, cur = next, child
				}
				st, err := Stitch(ctx, sh)
				if err != nil {
					t.Fatalf("trial %d: Stitch: %v", trial, err)
				}
				cold, err := Build(cur)
				if err != nil {
					t.Fatalf("trial %d: Build: %v", trial, err)
				}
				if cellFingerprint(st) != cellFingerprint(cold) || compFingerprint(st) != compFingerprint(cold) {
					t.Fatalf("trial %d: chained stitch diverges from the cold build", trial)
				}
			}
		})
	}
	if merges == 0 {
		t.Fatal("no delta merged parent shards; the bridging cases never ran")
	}
}

// without returns names minus drop, in order.
func without(names, drop []string) []string {
	skip := make(map[string]bool, len(drop))
	for _, n := range drop {
		skip[n] = true
	}
	var out []string
	for _, n := range names {
		if !skip[n] {
			out = append(out, n)
		}
	}
	return out
}

// A one-shard parent plan says nothing about components, so the child
// that crosses the threshold plans cold even when the parent's regions
// form one component: the child's plan equals the cold planner's, and its
// shard holding exactly the parent's regions aliases the parent's sub.
func TestInsertShardedCrossingPlansCold(t *testing.T) {
	ctx := context.Background()
	in := workload.CountyMesh(3) // one box component
	withShardThreshold(t, in.Len()+1)
	sh, err := BuildSharded(ctx, in)
	if err != nil || sh.NumShards() != 1 || sh.Plan.components {
		t.Fatalf("parent: %v; want one shard not planned by components", err)
	}
	child := in.Clone()
	child.MustAdd("Zz_far", region.MustRect(10000, 10000, 10004, 10004))
	next, err := InsertSharded(ctx, sh, child, "Zz_far")
	if err != nil {
		t.Fatalf("InsertSharded: %v", err)
	}
	if want := PlanShards(child); !reflect.DeepEqual(next.Plan, want) || want.NumShards() != 2 {
		t.Fatalf("crossing plan %+v, want the cold plan %+v of two shards", next.Plan, want)
	}
	if next.Subs[0] != sh.Subs[0] || next.BuildNanos[0] != 0 {
		t.Fatal("the shard holding exactly the parent's regions was not aliased")
	}
}
