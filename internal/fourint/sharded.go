package fourint

import (
	"fmt"

	"topodb/internal/arrange"
	"topodb/internal/geom"
	"topodb/internal/par"
)

// AllPairsSharded computes the full ordered-pair relation table from a
// sharded artifact without ever materializing the global arrangement.
// Cross-shard pairs are Disjoint by construction — shards are the
// connected components of the box-overlap graph, so two regions in
// different shards have disjoint closed bounding boxes. Same-shard pairs
// classify against their shard's sub-arrangement alone (whose cells carry
// exactly the member regions' signs), with the usual box prune applied
// first. boxes must be indexed like sh.Names.
func AllPairsSharded(sh *arrange.Sharded, boxes []geom.Box) (map[[2]string]Relation, error) {
	return allPairsSharded(sh, boxes, nil, nil)
}

// AllPairsShardedDelta is AllPairsSharded for an artifact whose instance
// extends a parent instance by exactly the regions at addedIdx (indexed
// like sh.Names): pairs of pre-existing regions merge from the parent's
// relation map (their extents are untouched by a pure extension), and only
// pairs touching an added region are classified. A pre-existing pair
// missing from parent fails — the caller falls back to the full table.
func AllPairsShardedDelta(sh *arrange.Sharded, boxes []geom.Box, addedIdx []int, parent map[[2]string]Relation) (map[[2]string]Relation, error) {
	if parent == nil {
		return nil, fmt.Errorf("fourint: nil parent relations")
	}
	isAdded := make([]bool, len(sh.Names))
	for _, i := range addedIdx {
		if i < 0 || i >= len(sh.Names) {
			return nil, fmt.Errorf("fourint: added index %d out of range", i)
		}
		isAdded[i] = true
	}
	return allPairsSharded(sh, boxes, isAdded, parent)
}

func allPairsSharded(sh *arrange.Sharded, boxes []geom.Box, isAdded []bool, parent map[[2]string]Relation) (map[[2]string]Relation, error) {
	names := sh.Names
	n := len(names)
	if len(boxes) != n {
		return nil, fmt.Errorf("fourint: %d boxes for %d regions", len(boxes), n)
	}
	type pair struct{ c, li, lj, i, j int }
	var pairs []pair
	out := make(map[[2]string]Relation, n*(n-1))
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			key := [2]string{names[i], names[j]}
			if isAdded != nil && !isAdded[i] && !isAdded[j] {
				r, ok := parent[key]
				if !ok {
					return nil, fmt.Errorf("fourint: pair (%s, %s) missing from parent relations", names[i], names[j])
				}
				out[key] = r
				out[[2]string{names[j], names[i]}] = r.Inverse()
				continue
			}
			c := sh.MatrixShard(i, j)
			if c < 0 || !boxes[i].Intersects(boxes[j]) {
				out[key] = Disjoint
				out[[2]string{names[j], names[i]}] = Disjoint
				continue
			}
			pairs = append(pairs, pair{c, sh.Plan.LocalIndex(i), sh.Plan.LocalIndex(j), i, j})
		}
	}
	rels := make([]Relation, len(pairs))
	errs := make([]error, len(pairs))
	par.For(len(pairs), func(k int) {
		p := pairs[k]
		rels[k], errs[k] = Classify(MatrixOf(sh.Subs[p.c], p.li, p.lj))
	})
	for k, p := range pairs {
		if errs[k] != nil {
			return nil, fmt.Errorf("fourint: %s vs %s: %w", names[p.i], names[p.j], errs[k])
		}
		out[[2]string{names[p.i], names[p.j]}] = rels[k]
		out[[2]string{names[p.j], names[p.i]}] = rels[k].Inverse()
	}
	return out, nil
}
