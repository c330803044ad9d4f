package arrange

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"topodb/internal/par"
	"topodb/internal/spatial"
)

// shardInsertMax bounds the per-shard delta (regions a changed shard
// gained over its largest surviving parent shard) the incremental
// sub-derivation accepts; larger deltas — bulk merges of many shards —
// rebuild that shard cold, which at that size is the cheaper path anyway.
const shardInsertMax = 64

// shardKey is the cross-generation identity of a shard: its member names.
// Box-overlap components only ever merge as regions are added, so a shard
// of the new plan either reproduces a parent shard's member set exactly
// (untouched — its sub-arrangement is aliased) or unions one or more
// parent shards with some added regions (changed — rebuilt or derived).
// The one exception is the generation that crosses the shard threshold:
// its parent plan is one shard, and its component shards are pieces of
// it (see insertShard).
func shardKey(names []string, members []int) string {
	var b strings.Builder
	for _, ri := range members {
		b.WriteString(names[ri])
		b.WriteByte(0)
	}
	return b.String()
}

// InsertSharded derives the sharded artifact of in — which must extend
// parent's instance by exactly the named added regions — doing heavy work
// only in the shards the delta touches:
//
//   - shards whose member set the delta left alone alias the parent
//     generation's sub-arrangement wholesale (a pointer copy; sub-
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
	if budget := RegionBudget(); len(names) > budget {
		return nil, fmt.Errorf("arrange: %w: %d regions exceed the region budget of %d (raise it with SetRegionBudget)",
			ErrTooManyRegions, len(names), budget)
	}
	inParent := func(name string) bool {
		i := sort.SearchStrings(parent.Names, name)
		return i < len(parent.Names) && parent.Names[i] == name
	}
	for _, n := range added {
		if inParent(n) {
			return nil, fmt.Errorf("arrange: InsertSharded: region %q replaces a parent region", n)
		}
		if _, ok := in.Ext(n); !ok {
			return nil, fmt.Errorf("arrange: InsertSharded: added region %q missing from instance", n)
		}
	}
	for _, n := range parent.Names {
		if _, ok := in.Ext(n); !ok {
			return nil, fmt.Errorf("arrange: InsertSharded: parent region %q missing from instance", n)
		}
	}

	plan := planOf(names, in)
	parentByKey := make(map[string]int, parent.Plan.NumShards())
	for pc, members := range parent.Plan.Members {
		parentByKey[shardKey(parent.Names, members)] = pc
	}

	sh := &Sharded{
		Names:      names,
		Plan:       plan,
		Subs:       make([]*Arrangement, plan.NumShards()),
		BuildNanos: make([]int64, plan.NumShards()),
	}
	var changed []int
	for c, members := range plan.Members {
		if pc, ok := parentByKey[shardKey(names, members)]; ok {
			sh.Subs[c] = parent.Subs[pc]
			continue
		}
		changed = append(changed, c)
	}
	errs := make([]error, len(changed))
	if err := par.ForCtx(ctx, len(changed), func(k int) {
		t0 := time.Now()
		sub, err := insertShard(ctx, parent, in, plan, changed[k])
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

// insertShard builds changed shard c of the new plan: incrementally from
// its largest surviving parent shard when the shard is a union of whole
// parent shards plus added regions and the per-shard delta is small
// enough, cold otherwise.
func insertShard(ctx context.Context, parent *Sharded, in *spatial.Instance, plan *ShardPlan, c int) (*Arrangement, error) {
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
	// Members ascend by name, so their positions in the parent's sorted
	// names only move forward: a member right after a parent member is
	// found with one comparison, with no search over the whole list.
	j := 0
	for _, ri := range plan.Members[c] {
		name := plan.Names[ri]
		if j < len(parent.Names) && parent.Names[j] < name {
			j += sort.SearchStrings(parent.Names[j:], name)
		}
		if j == len(parent.Names) || parent.Names[j] != name {
			covered++ // an added region
			continue
		}
		pc := parent.Plan.Shard[j]
		j++
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
			name := plan.Names[ri]
			if base.RegionIndex(name) == -1 {
				delta = append(delta, name)
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
