package arrange

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"topodb/internal/geom"
	"topodb/internal/par"
	"topodb/internal/spatial"
)

// A ShardPlan partitions an instance's regions into shards. At or above
// the shard threshold the shards are the connected components of the
// closed bounding-box overlap graph (PlanShardsBoxes); below it the plan
// is one shard holding every region. Two regions land in different
// component shards only when no chain of box intersections joins them,
// so regions in different shards are separated by disjoint closed boxes —
// their boundaries can never meet, their cells can never overlap, and
// every cell of one shard is Exterior to every region of another. That
// separation is what makes the sharded pipeline exact: per-shard
// arrangements compose into the global cell complex without any
// cross-shard geometry (see Stitch).
//
// Shards are numbered deterministically by their smallest member region
// index, and member lists are ascending, so the plan — and everything
// derived from it — is a pure function of the instance and the
// threshold.
type ShardPlan struct {
	Names   []string // instance names, sorted (indexes the other fields)
	Shard   []int    // region index -> shard id
	Members [][]int  // shard id -> member region indices, ascending

	// components records that the shards are box-overlap components
	// (PlanShardsBoxes), not the one shard a small instance is planned as,
	// which says nothing about its components. Only a component plan can
	// be extended into its child's by derivePlan.
	components bool
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

	p := &ShardPlan{Names: names, Shard: make([]int, n), components: true}
	id := make([]int, n)
	for i := range id {
		id[i] = -1
	}
	for i := 0; i < n; i++ {
		r := int(find(int32(i)))
		if id[r] == -1 {
			id[r] = len(p.Members)
			p.Members = append(p.Members, nil)
		}
		p.Shard[i] = id[r]
		p.Members[id[r]] = append(p.Members[id[r]], i)
	}
	return p
}

// SubInstance extracts shard c's sub-instance: the member regions under
// their global names. Its sorted name order equals the members' global
// order, so local region index == member rank (see LocalIndex). A
// one-shard plan's only shard is the whole instance, so in itself is
// returned and nothing is copied.
func (p *ShardPlan) SubInstance(in *spatial.Instance, c int) *spatial.Instance {
	if len(p.Members) == 1 {
		return in
	}
	sub := spatial.New()
	for _, ri := range p.Members[c] {
		sub.MustAdd(p.Names[ri], in.MustExt(p.Names[ri]))
	}
	return sub
}

// defaultShardThreshold is the smallest instance planned as box-overlap
// components. Below it an instance is one shard: per-shard builds plus a
// stitched copy pay for themselves only in the 10k–100k mosaic regime,
// and on a scatter of ~900 tiny components the stitched copy alone
// costs more heap than the cells it duplicates.
const defaultShardThreshold = 2048

var shardThreshold atomic.Int64

func init() { shardThreshold.Store(defaultShardThreshold) }

// SetShardThreshold is a test seam: it sets the smallest region count at
// which the shard plan splits an instance into box-overlap components,
// returning the previous setting, so tests can run both plans on small
// instances. 0 plans every instance by components; negative plans every
// instance as one shard. Production keeps the fixed default of 2048: both
// plans produce cell-for-cell identical stitched arrangements and
// byte-identical canonical encodings.
func SetShardThreshold(n int) int { return int(shardThreshold.Swap(int64(n))) }

// ShardingEnabled reports whether an instance of n regions is planned as
// box-overlap components under the current threshold; below it the plan
// has one shard holding the whole instance.
func ShardingEnabled(n int) bool {
	t := shardThreshold.Load()
	return t >= 0 && int64(n) >= t
}

// planOf is the cold shard planner behind BuildSharded and InsertSharded:
// box-overlap components (PlanShardsBoxes) at or above the shard
// threshold, one shard holding every region below it. names must be the
// caller's own copy of in's names. InsertSharded extends a parent's
// component plan by derivePlan instead when it can.
func planOf(names []string, in *spatial.Instance) *ShardPlan {
	if ShardingEnabled(len(names)) {
		return PlanShardsBoxes(names, in.Boxes())
	}
	all := make([]int, len(names))
	for i := range all {
		all[i] = i
	}
	return &ShardPlan{Names: names, Shard: make([]int, len(names)), Members: [][]int{all}}
}

// Sharded is the sharded serving artifact of one instance: the shard plan
// plus one sub-arrangement per shard (one for an instance below the shard
// threshold). Pair relations read the one shard holding both regions; the
// exact global Arrangement, when an artifact needs it (invariant, query
// universe, point location), is composed by Stitch. Immutable after
// construction; safe for concurrent use.
type Sharded struct {
	Names []string
	Plan  *ShardPlan
	Subs  []*Arrangement

	// BuildNanos records each shard's build latency (0 for shards aliased
	// from a parent generation); observability only, never part of any
	// derived artifact.
	BuildNanos []int64
}

// NumShards returns the number of shards.
func (sh *Sharded) NumShards() int { return len(sh.Subs) }

// BuildSharded plans and builds the sharded artifact of in: every shard's
// sub-arrangement is an independent cold build, fanned out over the
// bounded worker pool. Below the shard threshold the plan has one shard,
// whose sub-arrangement is the cold build of in itself. The same region
// budget as Build applies to the whole instance. A fired ctx abandons the
// remaining shards and returns the context's error.
func BuildSharded(ctx context.Context, in *spatial.Instance) (*Sharded, error) {
	// Copy the names: the Sharded outlives this call as a parent artifact
	// for delta derivation, and Instance.Names returns the live slice that
	// later in-place Adds shift underneath us.
	names := append([]string(nil), in.Names()...)
	if len(names) == 0 {
		return nil, fmt.Errorf("arrange: empty instance")
	}
	if err := checkBudget(len(names)); err != nil {
		return nil, err
	}
	plan := planOf(names, in)
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

// MatrixShard returns the shard holding both regions, or -1 when they
// live in different shards — in which case their closed bounding boxes
// are disjoint and the pair is Disjoint without any cell scan.
func (sh *Sharded) MatrixShard(ri, rj int) int {
	if c := sh.Plan.Shard[ri]; c == sh.Plan.Shard[rj] {
		return c
	}
	return -1
}
