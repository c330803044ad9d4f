package fourint

import (
	"topodb/internal/arrange"
	"topodb/internal/geom"
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
	return allPairs(sh.Names, boxes, shardMatrix(sh))
}

// shardMatrix classifies a pair against the one shard holding both
// regions; a cross-shard pair has the empty matrix, Disjoint.
func shardMatrix(sh *arrange.Sharded) func(i, j int) Matrix {
	return func(i, j int) Matrix {
		c := sh.MatrixShard(i, j)
		if c < 0 {
			return Matrix{}
		}
		return MatrixOf(sh.Subs[c], sh.Plan.LocalIndex(i), sh.Plan.LocalIndex(j))
	}
}
