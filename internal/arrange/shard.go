package arrange

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"topodb/internal/geom"
	"topodb/internal/par"
	"topodb/internal/rat"
	"topodb/internal/spatial"
)

// A ShardPlan partitions an instance's regions into shards: the connected
// components of the closed bounding-box overlap graph. Two regions land in
// the same shard exactly when their boxes are chained together by
// (possibly transitive) box intersections, so regions in different shards
// are separated by disjoint closed boxes — their boundaries can never
// meet, their cells can never overlap, and every cell of one shard is
// Exterior to every region of another. That separation is what makes the
// sharded pipeline exact: per-shard arrangements compose into the global
// cell complex without any cross-shard geometry (see Stitch).
//
// Shards are numbered deterministically by their smallest member region
// index, and member lists are ascending, so the plan — and everything
// derived from it — is a pure function of the instance.
type ShardPlan struct {
	Names   []string   // instance names, sorted (indexes the other fields)
	Shard   []int      // region index -> shard id
	Members [][]int    // shard id -> member region indices, ascending
	Boxes   []geom.Box // shard id -> union box of the member boxes
}

// NumShards returns the number of shards in the plan.
func (p *ShardPlan) NumShards() int { return len(p.Members) }

// RegionIndex returns the global index of a region name, or -1.
func (p *ShardPlan) RegionIndex(name string) int {
	i := sort.SearchStrings(p.Names, name)
	if i < len(p.Names) && p.Names[i] == name {
		return i
	}
	return -1
}

// LocalIndex returns the index of global region ri inside its shard's
// sub-arrangement (sub-instance names are the sorted subset of the global
// names, so the local index is the member rank).
func (p *ShardPlan) LocalIndex(ri int) int {
	m := p.Members[p.Shard[ri]]
	return sort.SearchInts(m, ri)
}

// PlanShards computes the shard plan of an instance from its per-region
// bounding boxes via a single x-sweep over the boxes (the same active-list
// discipline as the intersection sweep): boxes are visited in ascending
// MinX, a box leaves the active list once its MaxX falls behind the sweep
// line, and every surviving y-overlapping pair is unioned. Closed-box
// touching counts as overlap — matching geom.Box.Intersects — so regions
// that merely share a border still share a shard (their boundaries meet).
func PlanShards(in *spatial.Instance) *ShardPlan {
	return PlanShardsBoxes(in.Names(), in.Boxes())
}

// PlanShardsBoxes is PlanShards from precomputed boxes indexed like names.
func PlanShardsBoxes(names []string, boxes []geom.Box) *ShardPlan {
	n := len(boxes)
	uf := make([]int32, n)
	for i := range uf {
		uf[i] = int32(i)
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			uf[rb] = ra
		}
	}

	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		if cmp := boxes[order[a]].MinX.Cmp(boxes[order[b]].MinX); cmp != 0 {
			return cmp < 0
		}
		return order[a] < order[b]
	})
	active := make([]int32, 0, 64)
	for _, i := range order {
		bi := &boxes[i]
		kept := active[:0]
		for _, j := range active {
			bj := &boxes[j]
			if bj.MaxX.Less(bi.MinX) {
				continue // retired by the sweep line
			}
			kept = append(kept, j)
			if bj.MinY.LessEq(bi.MaxY) && bi.MinY.LessEq(bj.MaxY) {
				union(i, j)
			}
		}
		active = append(kept, i)
	}

	p := &ShardPlan{Names: names, Shard: make([]int, n)}
	id := make([]int, n)
	for i := range id {
		id[i] = -1
	}
	for i := 0; i < n; i++ {
		r := int(find(int32(i)))
		if id[r] == -1 {
			id[r] = len(p.Members)
			p.Members = append(p.Members, nil)
			p.Boxes = append(p.Boxes, boxes[i])
		} else {
			p.Boxes[id[r]] = p.Boxes[id[r]].Union(boxes[i])
		}
		p.Shard[i] = id[r]
		p.Members[id[r]] = append(p.Members[id[r]], i)
	}
	return p
}

// SubInstance extracts shard c's sub-instance: the member regions under
// their global names. Its sorted name order equals the members' global
// order, so local region index == member rank (see LocalIndex).
func (p *ShardPlan) SubInstance(in *spatial.Instance, c int) *spatial.Instance {
	sub := spatial.New()
	for _, ri := range p.Members[c] {
		sub.MustAdd(p.Names[ri], in.MustExt(p.Names[ri]))
	}
	return sub
}

// defaultShardThreshold keeps every instance the existing tests and
// goldens exercise — up to and including the 1024-region large-serving
// rows — on the proven monolithic path byte-for-byte; only instances past
// it (the 10k–100k mosaic regime) take the sharded pipeline.
const defaultShardThreshold = 2048

var shardThreshold atomic.Int64

func init() { shardThreshold.Store(defaultShardThreshold) }

// ShardThreshold returns the current sharding threshold.
func ShardThreshold() int { return int(shardThreshold.Load()) }

// SetShardThreshold sets the smallest region count at which derived-
// artifact construction takes the sharded path, returning the previous
// setting. Instances below the threshold stay on the monolithic path
// byte-for-byte. 0 shards everything (equivalence tests); negative
// disables sharding entirely. Both paths produce cell-for-cell identical
// arrangements and byte-identical canonical encodings — the knob trades
// the monolithic build's O(cells·regions) labeling and global sweep for
// per-shard work plus a stitching pass, which pays off only at scale.
func SetShardThreshold(n int) int { return int(shardThreshold.Swap(int64(n))) }

// ShardingEnabled reports whether an instance of n regions takes the
// sharded path under the current threshold.
func ShardingEnabled(n int) bool {
	t := shardThreshold.Load()
	return t >= 0 && int64(n) >= t
}

// Sharded is the sharded serving artifact of one instance: the shard plan
// plus one sub-arrangement per shard. Point location routes through the
// shard boxes to one (rarely a few) sub-arrangements; pair relations read
// the one shard holding both regions; the exact global Arrangement, when
// an artifact needs it (invariant, query universe), is composed by Stitch.
// Immutable after construction apart from the routing counters and the
// lazily built shard-box index; safe for concurrent use.
type Sharded struct {
	Names []string
	Plan  *ShardPlan
	Subs  []*Arrangement

	// BuildNanos records each shard's build latency (0 for shards aliased
	// from a parent generation); observability only, never part of any
	// derived artifact.
	BuildNanos []int64

	// Routing effectiveness counters: queries answered from one shard vs
	// queries that had to consult several (nested shard boxes).
	oneShard, multiShard atomic.Uint64

	// route is the lazily built x-interval index over the shard boxes.
	route struct {
		once   sync.Once
		tree   *geom.IntervalIndex
		lo, hi []rat.R
	}
}

// NumShards returns the number of shards.
func (sh *Sharded) NumShards() int { return len(sh.Subs) }

// RoutingCounts returns how many located queries touched exactly one
// shard and how many had to consult several.
func (sh *Sharded) RoutingCounts() (one, multi uint64) {
	return sh.oneShard.Load(), sh.multiShard.Load()
}

// BuildSharded plans and builds the sharded artifact of in: every shard's
// sub-arrangement is an independent cold build, fanned out over the
// bounded worker pool. The same region budget as Build applies to the
// whole instance. A fired ctx abandons the remaining shards and returns
// the context's error.
func BuildSharded(ctx context.Context, in *spatial.Instance) (*Sharded, error) {
	// Copy the names: the Sharded outlives this call as a parent artifact
	// for delta derivation, and Instance.Names returns the live slice that
	// later in-place Adds shift underneath us.
	names := append([]string(nil), in.Names()...)
	if len(names) == 0 {
		return nil, fmt.Errorf("arrange: empty instance")
	}
	if budget := RegionBudget(); len(names) > budget {
		return nil, fmt.Errorf("arrange: %w: %d regions exceed the region budget of %d (raise it with SetRegionBudget)", ErrTooManyRegions, len(names), budget)
	}
	plan := PlanShardsBoxes(names, in.Boxes())
	sh := &Sharded{
		Names:      names,
		Plan:       plan,
		Subs:       make([]*Arrangement, plan.NumShards()),
		BuildNanos: make([]int64, plan.NumShards()),
	}
	errs := make([]error, plan.NumShards())
	if err := par.ForCtx(ctx, plan.NumShards(), func(c int) {
		t0 := time.Now()
		sub, err := BuildCtx(ctx, plan.SubInstance(in, c))
		sh.Subs[c], errs[c] = sub, err
		sh.BuildNanos[c] = time.Since(t0).Nanoseconds()
	}); err != nil {
		return nil, canceled(ctx)
	}
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, canceled(ctx)
	}
	return sh, nil
}

// ensureRouteIndex builds the x-interval index over shard boxes once.
func (sh *Sharded) ensureRouteIndex() {
	sh.route.once.Do(func() {
		n := sh.NumShards()
		lo, hi := make([]rat.R, n), make([]rat.R, n)
		for c := 0; c < n; c++ {
			// Route by the sub-arrangement's vertex bounding box, not the
			// plan's region-box union: bounded faces live inside the vertex
			// hull, and the vertex box of a shard is contained in its region
			// boxes, so the two agree on every hit that matters.
			lo[c], hi[c] = sh.Subs[c].bbox.MinX, sh.Subs[c].bbox.MaxX
		}
		sh.route.lo, sh.route.hi = lo, hi
		sh.route.tree = geom.NewIntervalIndex(lo, hi)
	})
}

// ShardLoc is the result of sharded point location: the shard whose
// sub-arrangement holds the cell, plus the cell within it. A point in no
// shard's cells — the global exterior — reports Shard == -1.
type ShardLoc struct {
	Shard int
	Loc   Loc
}

// Locate routes p through the shard-box index and returns the cell of the
// (conceptual) global arrangement containing it, as a shard-local cell
// reference. Candidate shards are those whose vertex bounding box
// contains p; when several match (shard boxes nest — a shard can sit
// inside another's courtyard face), the innermost bounded face wins, by
// the same smallest-Area2 rule the monolithic nesting pass uses, so the
// answer agrees cell-for-cell with Locate on the stitched arrangement.
func (sh *Sharded) Locate(p geom.Pt) ShardLoc {
	sh.ensureRouteIndex()
	cands := sh.route.tree.Stab(p.X, sh.route.lo, sh.route.hi, nil)
	consulted := 0
	best := ShardLoc{Shard: -1, Loc: Loc{Kind: LocFace, Index: -1}}
	var bestArea rat.R
	for _, ci := range cands {
		sub := sh.Subs[ci]
		if !sub.bbox.MinY.LessEq(p.Y) || !p.Y.LessEq(sub.bbox.MaxY) {
			continue
		}
		consulted++
		loc := sub.Locate(p)
		if loc.Kind != LocFace {
			// On a shard's skeleton: no other shard can hold p at all
			// (skeletons live in disjoint closed box unions), so this is the
			// global cell.
			best = ShardLoc{Shard: int(ci), Loc: loc}
			break
		}
		if loc.Index == sub.Exterior {
			continue
		}
		f := &sub.Faces[loc.Index]
		if best.Shard == -1 || f.Area2.Less(bestArea) {
			best = ShardLoc{Shard: int(ci), Loc: loc}
			bestArea = f.Area2
		}
	}
	if consulted > 1 {
		sh.multiShard.Add(1)
	} else {
		sh.oneShard.Add(1)
	}
	return best
}

// Label returns the global sign vector of the located cell, indexed like
// Names: the shard-local entries mapped to the member regions' global
// indices, Exterior everywhere else — exactly the stitched arrangement's
// label for the same cell (foreign regions are Exterior to every shard
// cell; see ShardPlan). The global exterior yields the all-Exterior label.
func (sh *Sharded) Label(l ShardLoc) Label {
	if l.Shard < 0 {
		return Label{n: len(sh.Names)}
	}
	sub := sh.Subs[l.Shard]
	var local Label
	switch l.Loc.Kind {
	case LocVertex:
		local = sub.Verts[l.Loc.Index].Label
	case LocEdge:
		local = sub.Edges[l.Loc.Index].Label
	default:
		local = sub.Faces[l.Loc.Index].Label
	}
	members := sh.Plan.Members[l.Shard]
	ents := make([]labelEnt, len(local.ents))
	for k, e := range local.ents {
		ents[k] = mkEnt(members[e.region()], e.sign())
	}
	return Label{ents: ents, n: len(sh.Names)}
}

// RecordRoute folds an externally routed query into the routing counters:
// one that consulted at most one shard (a pair relate inside a single
// shard, or a cross-shard pair resolved without touching any cell complex)
// counts as one-shard, the rest as multi-shard. Locate records its own
// routing; this is for callers that route through the plan directly.
func (sh *Sharded) RecordRoute(consulted int) {
	if consulted > 1 {
		sh.multiShard.Add(1)
	} else {
		sh.oneShard.Add(1)
	}
}

// MatrixShard returns the shard holding both regions, or -1 when they
// live in different shards — in which case their closed bounding boxes
// are disjoint and the pair is Disjoint without any cell scan.
func (sh *Sharded) MatrixShard(ri, rj int) int {
	if c := sh.Plan.Shard[ri]; c == sh.Plan.Shard[rj] {
		return c
	}
	return -1
}
