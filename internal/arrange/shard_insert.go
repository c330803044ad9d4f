package arrange

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"topodb/internal/geom"
	"topodb/internal/par"
	"topodb/internal/spatial"
)

// shardInsertMax bounds the per-shard delta (regions a changed shard
// gained over its largest surviving parent shard) the incremental
// sub-derivation accepts; larger deltas — bulk merges of many shards —
// rebuild that shard cold, which at that size is the cheaper path anyway.
const shardInsertMax = 64

// InsertSharded derives the sharded artifact of in — which must extend
// parent's instance by exactly the named added regions — doing heavy work
// only in the shards the delta touches:
//
//   - the plan of a component parent derives from the parent's plan
//     (derivePlan): only the added regions' boxes are tested, and the
//     instance is not re-planned,
//   - a shard whose members are exactly one parent shard's aliases that
//     parent shard's sub-arrangement wholesale (a pointer copy; sub-
//     arrangements are immutable),
//   - a changed shard is the union of >= 0 parent shards plus some added
//     regions (pure extensions can merge box components, never split
//     them); it derives incrementally by arrange.Insert into its largest
//     surviving parent shard when the per-shard delta is small, and
//     rebuilds cold — still only that shard — otherwise.
//
// When parent and child are both below the shard threshold, both plans
// are one shard, and the derivation is one Insert of the whole delta into
// the parent's only sub-arrangement.
//
// The result is a fresh Sharded; parent is never mutated and snapshots of
// its generation keep reading it.
func InsertSharded(ctx context.Context, parent *Sharded, in *spatial.Instance, added ...string) (*Sharded, error) {
	if parent == nil || len(added) == 0 {
		return nil, fmt.Errorf("arrange: InsertSharded needs a parent and at least one added region")
	}
	names := append([]string(nil), in.Names()...) // see BuildSharded
	if len(names) != len(parent.Names)+len(added) {
		return nil, fmt.Errorf("arrange: InsertSharded delta mismatch: %d = %d parent + %d added regions",
			len(names), len(parent.Names), len(added))
	}
	if err := checkBudget(len(names)); err != nil {
		return nil, err
	}
	old, err := lineage(parent.Names, names, added)
	if err != nil {
		return nil, err
	}

	// The generation that crosses the shard threshold has a one-shard
	// parent plan, whose components are unknown: it plans cold, like any
	// child below the threshold.
	var plan *ShardPlan
	if parent.Plan.components && ShardingEnabled(len(names)) {
		plan = derivePlan(parent, in, names, old)
	} else {
		plan = planOf(names, in)
	}

	sh := &Sharded{
		Names:      names,
		Plan:       plan,
		Subs:       make([]*Arrangement, plan.NumShards()),
		BuildNanos: make([]int64, plan.NumShards()),
	}
	var changed []int
	for c, members := range plan.Members {
		if pc := parentShardOf(parent.Plan, members, old); pc >= 0 {
			sh.Subs[c] = parent.Subs[pc]
			continue
		}
		changed = append(changed, c)
	}
	errs := make([]error, len(changed))
	if err := par.ForCtx(ctx, len(changed), func(k int) {
		t0 := time.Now()
		sub, err := insertShard(ctx, parent, in, plan, old, changed[k])
		sh.Subs[changed[k]], errs[k] = sub, err
		sh.BuildNanos[changed[k]] = time.Since(t0).Nanoseconds()
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

// lineage maps every region of names (sorted) to its index in the sorted
// parentNames, or to -1 for an added region, in one merge of the two
// lists. Given len(names) == len(parentNames)+len(added), which its
// callers check first, it fails unless names extends parentNames by
// exactly added.
func lineage(parentNames, names, added []string) ([]int, error) {
	sorted := append([]string(nil), added...)
	sort.Strings(sorted)
	for _, n := range sorted {
		if i := sort.SearchStrings(parentNames, n); i < len(parentNames) && parentNames[i] == n {
			return nil, fmt.Errorf("arrange: region %q replaces a parent region", n)
		}
	}
	old := make([]int, len(names))
	j, k := 0, 0
	for i, n := range names {
		switch {
		case j < len(parentNames) && parentNames[j] == n:
			old[i] = j
			j++
		case k < len(sorted) && sorted[k] == n:
			old[i] = -1
			k++
		case j < len(parentNames) && parentNames[j] < n:
			return nil, fmt.Errorf("arrange: parent region %q missing from instance", parentNames[j])
		case k < len(sorted) && sorted[k] < n:
			return nil, fmt.Errorf("arrange: added region %q missing from instance", sorted[k])
		default:
			return nil, fmt.Errorf("arrange: region %q is neither a parent region nor added", n)
		}
	}
	return old, nil
}

// derivePlan extends the parent's component plan by the added regions
// (old[i] == -1) into the component plan of names, without re-planning
// the instance: each added region's box is tested against every parent
// shard's box — its sub-arrangement's vertex box, which is the union of
// the member boxes — then against the member boxes of the shards it
// reaches, and against the other added boxes. Union-find over the parent
// shards and the added regions then yields the child's components, each
// a union of whole parent shards plus added regions, numbered by smallest
// member like PlanShardsBoxes, whose plan the result equals field for
// field.
func derivePlan(parent *Sharded, in *spatial.Instance, names []string, old []int) *ShardPlan {
	pp := parent.Plan
	ns := pp.NumShards()
	next := make([]int, len(pp.Names)) // parent index -> child index
	var added []int                    // child indices of the added regions, ascending
	for i, pj := range old {
		if pj < 0 {
			added = append(added, i)
		} else {
			next[pj] = i
		}
	}

	// Nodes 0..ns-1 are the parent shards, ns+k the k-th added region.
	uf := make([]int32, ns+len(added))
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
		if ra, rb := find(a), find(b); ra != rb {
			uf[max(ra, rb)] = min(ra, rb)
		}
	}
	boxes := make([]geom.Box, len(added))
	for k, ri := range added {
		b := in.MustExt(names[ri]).Box()
		boxes[k] = b
		for s := 0; s < ns; s++ {
			if !parent.Subs[s].bbox.Intersects(b) {
				continue
			}
			for _, m := range pp.Members[s] {
				if in.MustExt(pp.Names[m]).Box().Intersects(b) {
					union(int32(s), int32(ns+k))
					break
				}
			}
		}
		for k2 := 0; k2 < k; k2++ {
			if boxes[k2].Intersects(b) {
				union(int32(ns+k2), int32(ns+k))
			}
		}
	}

	// Number the components by smallest member: visit the parent shards
	// (whose smallest members ascend with the shard id, and keep their
	// order under next) and the added regions merged by smallest member.
	id := make([]int, len(uf))
	for i := range id {
		id[i] = -1
	}
	var sizes, sources []int
	visit := func(node, size int) {
		r := find(int32(node))
		if id[r] < 0 {
			id[r] = len(sizes)
			sizes, sources = append(sizes, 0), append(sources, 0)
		}
		sizes[id[r]] += size
		sources[id[r]]++
	}
	for s, k := 0, 0; s < ns || k < len(added); {
		if k == len(added) || (s < ns && next[pp.Members[s][0]] < added[k]) {
			visit(s, len(pp.Members[s]))
			s++
		} else {
			visit(ns+k, 1)
			k++
		}
	}

	plan := &ShardPlan{Names: names, Shard: make([]int, len(names)), Members: make([][]int, len(sizes)), components: true}
	backing := make([]int, 0, len(names))
	for c, size := range sizes {
		plan.Members[c] = backing[len(backing) : len(backing) : len(backing)+size]
		backing = backing[:len(backing)+size]
	}
	for s := 0; s < ns; s++ {
		c := id[find(int32(s))]
		for _, m := range pp.Members[s] {
			plan.Members[c] = append(plan.Members[c], next[m])
		}
	}
	for k, ri := range added {
		c := id[find(int32(ns+k))]
		plan.Members[c] = append(plan.Members[c], ri)
	}
	for c, members := range plan.Members {
		if sources[c] > 1 {
			sort.Ints(members)
		}
		for _, ri := range members {
			plan.Shard[ri] = c
		}
	}
	return plan
}

// parentShardOf returns the parent shard whose members are exactly the
// given child shard's (old maps child to parent indices, -1 for added
// regions), or -1 when the child shard gained an added region or merged
// parent shards — or is a piece of the one-shard parent of the
// generation that crosses the shard threshold.
func parentShardOf(pp *ShardPlan, members, old []int) int {
	pj := old[members[0]]
	if pj < 0 {
		return -1
	}
	pc := pp.Shard[pj]
	if len(pp.Members[pc]) != len(members) {
		return -1
	}
	for _, ri := range members[1:] {
		if pj := old[ri]; pj < 0 || pp.Shard[pj] != pc {
			return -1
		}
	}
	return pc
}

// insertShard builds changed shard c of the new plan: incrementally from
// its largest surviving parent shard when the shard is a union of whole
// parent shards plus added regions and the per-shard delta is small
// enough, cold otherwise.
func insertShard(ctx context.Context, parent *Sharded, in *spatial.Instance, plan *ShardPlan, old []int, c int) (*Arrangement, error) {
	subIn := plan.SubInstance(in, c)

	// When the shard's pre-existing members form a union of complete
	// parent shards, the largest is the Insert base and everything else
	// (other merged parent shards plus the genuinely new regions) is the
	// delta. covered counts the added members plus the full size of every
	// parent shard met, so it equals the shard's size exactly when each of
	// those parent shards lies wholly inside it. It does not when this
	// plan splits a one-shard parent plan into components — the
	// generation that crosses the threshold — and the shard builds cold.
	// The check reads the two plans, never the threshold, which may have
	// moved since the parent was planned.
	best, bestSize, covered := -1, 0, 0
	seen := make(map[int]bool)
	for _, ri := range plan.Members[c] {
		pj := old[ri]
		if pj < 0 {
			covered++ // an added region
			continue
		}
		pc := parent.Plan.Shard[pj]
		if seen[pc] {
			continue
		}
		seen[pc] = true
		size := len(parent.Plan.Members[pc])
		covered += size
		if size > bestSize || (size == bestSize && (best == -1 || pc < best)) {
			best, bestSize = pc, size
		}
	}
	if best >= 0 && covered == len(plan.Members[c]) && len(plan.Members[c])-bestSize <= shardInsertMax {
		base := parent.Subs[best]
		delta := make([]string, 0, len(plan.Members[c])-bestSize)
		for _, ri := range plan.Members[c] {
			if pj := old[ri]; pj < 0 || parent.Plan.Shard[pj] != best {
				delta = append(delta, plan.Names[ri])
			}
		}
		sub, err := Insert(ctx, base, subIn, delta...)
		if err == nil {
			return sub, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
		// Any other Insert failure is a routing decision: fall through
		// to the cold per-shard build.
	}
	return BuildCtx(ctx, subIn)
}
