package arrange

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"topodb/internal/geom"
	"topodb/internal/region"
	"topodb/internal/spatial"
)

// fuzzRect is one rectangle decoded from fuzz input.
type fuzzRect struct{ x1, y1, x2, y2 int64 }

// decodeRects reads up to six integer rectangles, four bytes each, on a
// small grid (corners in [0, 18)), so coincident edges, shared corners,
// nesting and duplicates are all frequent.
func decodeRects(data []byte) []fuzzRect {
	var rs []fuzzRect
	for i := 0; i+4 <= len(data) && len(rs) < 6; i += 4 {
		x, y := int64(data[i]%12), int64(data[i+1]%12)
		rs = append(rs, fuzzRect{x, y, x + 1 + int64(data[i+2]%6), y + 1 + int64(data[i+3]%6)})
	}
	return rs
}

// checkSparseLabels checks every cell's label against exact point location
// at the cell's location point (vertex, edge midpoint, face sample), the
// dense Key rendering against At, the entry list's shape, and every edge's
// Boundary entries against its owner set.
func checkSparseLabels(t *testing.T, a *Arrangement, in *spatial.Instance) {
	t.Helper()
	rings := make([]geom.Ring, len(a.Names))
	for ri, name := range a.Names {
		rings[ri] = in.MustExt(name).Ring()
	}
	check := func(what string, p geom.Pt, l Label) {
		t.Helper()
		if l.Len() != len(a.Names) {
			t.Fatalf("%s: label width %d, want %d", what, l.Len(), len(a.Names))
		}
		dense := make([]byte, l.Len())
		for ri := range rings {
			want := Exterior
			switch geom.RingContains(rings[ri], p) {
			case geom.Inside:
				want = Interior
			case geom.OnBoundary:
				want = Boundary
			}
			if got := l.At(ri); got != want {
				t.Fatalf("%s at %s: sign for %s is %v, want %v", what, p, a.Names[ri], got, want)
			}
			dense[ri] = "-bo"[want]
		}
		if l.Key() != string(dense) {
			t.Fatalf("%s: Key %q, dense rendering %q", what, l.Key(), dense)
		}
		prev := -1
		for k := 0; k < l.NumEntries(); k++ {
			ri, s := l.Entry(k)
			if ri <= prev || s == Exterior {
				t.Fatalf("%s: entry %d (%d, %v) breaks the ascending non-Exterior list", what, k, ri, s)
			}
			prev = ri
		}
	}
	for fi := range a.Faces {
		check(fmt.Sprintf("face %d", fi), a.Faces[fi].Sample, a.Faces[fi].Label)
	}
	for ei := range a.Edges {
		e := &a.Edges[ei]
		check(fmt.Sprintf("edge %d", ei), geom.Mid(a.Verts[e.V1].P, a.Verts[e.V2].P), e.Label)
		var bnd []int
		for k := 0; k < e.Label.NumEntries(); k++ {
			if ri, s := e.Label.Entry(k); s == Boundary {
				bnd = append(bnd, ri)
			}
		}
		if got, want := fmt.Sprint(bnd), fmt.Sprint(a.Pool.Members(e.Owners)); len(bnd) != a.Pool.Count(e.Owners) || got != want {
			t.Fatalf("edge %d: Boundary entries %s, owners %s", ei, got, want)
		}
	}
	for vi := range a.Verts {
		check(fmt.Sprintf("vertex %d", vi), a.Verts[vi].P, a.Verts[vi].Label)
	}
}

// insertShardedAt derives in from the sharded artifact of its parentNames
// subset by InsertSharded of added and StitchInc, with the shard
// threshold at threshold for the duration, and returns the stitch and the
// parent's stitch.
func insertShardedAt(t *testing.T, threshold int, in *spatial.Instance, parentNames []string, added string) (st, parentSt *Arrangement) {
	t.Helper()
	defer SetShardThreshold(SetShardThreshold(threshold))
	ctx := context.Background()
	parentSh, err := BuildSharded(ctx, subInstance(in, parentNames))
	if err != nil {
		t.Fatalf("threshold %d: BuildSharded parent: %v", threshold, err)
	}
	if parentSt, err = Stitch(ctx, parentSh); err != nil {
		t.Fatalf("threshold %d: Stitch parent: %v", threshold, err)
	}
	sh, err := InsertSharded(ctx, parentSh, in, added)
	if err != nil {
		t.Fatalf("threshold %d: InsertSharded %s: %v", threshold, added, err)
	}
	if threshold == 0 {
		// A component parent's child plan is derived, not re-planned.
		if want := PlanShardsBoxes(in.Names(), in.Boxes()); !reflect.DeepEqual(sh.Plan, want) {
			t.Fatalf("InsertSharded %s: derived plan %+v, cold plan %+v", added, sh.Plan, want)
		}
	}
	if st, err = StitchInc(ctx, sh, parentSh, parentSt); err != nil {
		t.Fatalf("threshold %d: StitchInc: %v", threshold, err)
	}
	return st, parentSt
}

// FuzzLabels builds the arrangement of a few fuzz-decoded rectangles and
// checks its sparse labels against exact geometry; then checks that Insert
// of the last rectangle reproduces the cold build's cells and component
// nesting forest (cellFingerprint, compFingerprint), and so does
// InsertSharded + StitchInc of it under both shard plans — one shard (the
// default threshold) and box-overlap components (threshold 0), where a
// last rectangle bridging clusters merges parent shards and the derived
// child plan must equal PlanShardsBoxes' — with every linked stitch's
// provenance valid. Last, stitching a two-shard artifact
// (the rectangles plus a translated copy, interleaved in name order) must
// reproduce the monolithic build. The last rectangle's name sorts first
// or last depending on the input, so the derivations run both with and
// without shifting the parent's region indices.
func FuzzLabels(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := decodeRects(data)
		if len(rs) == 0 {
			return
		}
		ctx := context.Background()
		in := spatial.New()
		var last string
		for i, r := range rs {
			name := fmt.Sprintf("R%d", i)
			if i == len(rs)-1 && data[4*i+3]&0x80 != 0 {
				name = "A" // sorts before every parent name
			}
			in.MustAdd(name, region.MustRect(r.x1, r.y1, r.x2, r.y2))
			last = name
		}
		cold, err := Build(in)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		checkSparseLabels(t, cold, in)

		if len(rs) > 1 {
			var parentNames []string
			for _, n := range in.Names() {
				if n != last {
					parentNames = append(parentNames, n)
				}
			}
			parent, err := Build(subInstance(in, parentNames))
			if err != nil {
				t.Fatalf("Build parent: %v", err)
			}
			inc, err := Insert(ctx, parent, in, last)
			if err != nil {
				t.Fatalf("Insert %s: %v", last, err)
			}
			checkSparseLabels(t, inc, in)
			if cellFingerprint(inc) != cellFingerprint(cold) || compFingerprint(inc) != compFingerprint(cold) {
				t.Fatalf("Insert of %s diverges from the cold build", last)
			}
			for _, threshold := range []int{defaultShardThreshold, 0} {
				st, parentSt := insertShardedAt(t, threshold, in, parentNames, last)
				if cellFingerprint(st) != cellFingerprint(cold) || compFingerprint(st) != compFingerprint(cold) {
					t.Fatalf("threshold %d: InsertSharded + StitchInc of %s diverges from the cold build", threshold, last)
				}
				if p := st.Prov(); p != nil {
					validateProvenance(t, st, parentSt, p)
				}
			}
		}

		// Two shards: shard 0 holds the rectangles, shard 1 a copy shifted
		// past the grid; "Q<i>a"/"Q<i>b" interleave their global indices.
		two := spatial.New()
		for i, r := range rs {
			two.MustAdd(fmt.Sprintf("Q%da", i), region.MustRect(r.x1, r.y1, r.x2, r.y2))
			two.MustAdd(fmt.Sprintf("Q%db", i), region.MustRect(r.x1+20, r.y1, r.x2+20, r.y2))
		}
		names := two.Names()
		plan := &ShardPlan{Names: names, Shard: make([]int, len(names)), Members: make([][]int, 2)}
		for ri, n := range names {
			c := 0
			if n[len(n)-1] == 'b' {
				c = 1
			}
			plan.Shard[ri] = c
			plan.Members[c] = append(plan.Members[c], ri)
		}
		sh := &Sharded{Names: names, Plan: plan}
		for c := 0; c < 2; c++ {
			sub, err := Build(plan.SubInstance(two, c))
			if err != nil {
				t.Fatalf("Build shard %d: %v", c, err)
			}
			sh.Subs = append(sh.Subs, sub)
		}
		st, err := Stitch(ctx, sh)
		if err != nil {
			t.Fatalf("Stitch: %v", err)
		}
		mono, err := Build(two)
		if err != nil {
			t.Fatalf("Build two: %v", err)
		}
		checkSparseLabels(t, st, two)
		if cellFingerprint(st) != cellFingerprint(mono) || compFingerprint(st) != compFingerprint(mono) || faceSamples(st) != faceSamples(mono) {
			t.Fatal("two-shard stitch diverges from the monolithic build")
		}
	})
}
