package invariant

import (
	"context"
	"fmt"
	"testing"

	"topodb/internal/arrange"
	"topodb/internal/region"
	"topodb/internal/spatial"
)

// FuzzCanonicalDelta inserts one to three fuzz-decoded rectangles into the
// arrangement of the others and checks that the invariant derived from the
// parent's by FromArrangementDelta has the cold canonical encoding, along
// two routes: a monolithic Insert, and the sharded route under a
// box-component plan (shard threshold 0), where BuildSharded,
// InsertSharded and StitchInc derive the stitched child, as a metro
// instance's edit does.
//
// data[0] steers the run: bits 0-1 pick how many rectangles are added,
// bits 2-4 whether each added name sorts before every parent name (a
// non-identity remap) or after them (the identity remap), and bit 7
// whether the parent is canonicalized first, so its component encodings
// are there to reuse. The rest is rectangles, four bytes each, on a small
// grid: nesting, shared edges, crossings and far-apart components are all
// frequent.
func FuzzCanonicalDelta(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		ctl, body := data[0], data[1:]
		var rects []region.Region
		for i := 0; i+4 <= len(body) && len(rects) < 6; i += 4 {
			x, y := int64(body[i]%14), int64(body[i+1]%14)
			rects = append(rects, region.MustRect(x, y, x+1+int64(body[i+2]%6), y+1+int64(body[i+3]%6)))
		}
		nAdded := 1 + int(ctl&3)%3
		if len(rects) <= nAdded {
			return
		}
		parentIn, in := spatial.New(), spatial.New()
		var added []string
		for i, r := range rects {
			name := fmt.Sprintf("P%d", i)
			if k := i - (len(rects) - nAdded); k >= 0 {
				name = fmt.Sprintf("Z%d", i)
				if ctl&(4<<k) != 0 {
					name = fmt.Sprintf("A%d", i)
				}
				added = append(added, name)
			} else {
				parentIn.MustAdd(name, r)
			}
			in.MustAdd(name, r)
		}

		ctx := context.Background()
		cold, err := New(in)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		want := cold.Canonical()
		// check derives the child's invariant along route from the parent
		// arrangement's and compares its canonical encoding with the cold one.
		check := func(route string, parentA, childA *arrange.Arrangement) {
			t.Helper()
			parent, err := FromArrangement(parentA)
			if err != nil {
				t.Fatalf("%s: FromArrangement parent: %v", route, err)
			}
			if ctl&0x80 != 0 {
				parent.Canonical()
			}
			inc, err := FromArrangementDelta(ctx, childA, parent)
			if err != nil {
				t.Fatalf("%s: FromArrangementDelta %v: %v", route, added, err)
			}
			if got := inc.Canonical(); got != want {
				t.Fatalf("%s: delta canonical diverges from cold after inserting %v\n delta: %s\n  cold: %s", route, added, got, want)
			}
		}

		a, err := arrange.Build(parentIn)
		if err != nil {
			t.Fatalf("Build parent: %v", err)
		}
		next, err := arrange.Insert(ctx, a, in, added...)
		if err != nil {
			t.Fatalf("Insert %v: %v", added, err)
		}
		check("Insert", a, next)

		defer arrange.SetShardThreshold(arrange.SetShardThreshold(0))
		parentSh, err := arrange.BuildSharded(ctx, parentIn)
		if err != nil {
			t.Fatalf("BuildSharded parent: %v", err)
		}
		parentSt, err := arrange.Stitch(ctx, parentSh)
		if err != nil {
			t.Fatalf("Stitch parent: %v", err)
		}
		sh, err := arrange.InsertSharded(ctx, parentSh, in, added...)
		if err != nil {
			t.Fatalf("InsertSharded %v: %v", added, err)
		}
		st, err := arrange.StitchInc(ctx, sh, parentSh, parentSt)
		if err != nil {
			t.Fatalf("StitchInc: %v", err)
		}
		check("InsertSharded + StitchInc", parentSt, st)
	})
}
