package folang

import (
	"context"
	"fmt"

	"topodb/internal/arrange"
	"topodb/internal/spatial"
)

// InsertUniverse builds the evaluation context of an arrangement derived
// incrementally from the parent universe's arrangement. The incremental
// work is in the arrangement: the universe itself is rebuilt in linear
// passes — the region extents over the cells' sparse label entries
// (O(Σ support)) now, the structural tables (closures, incidence,
// adjacency) over the face walks and edges on first use — which costs no
// more than mapping the parent's extents forward would.
//
// The result is identical to NewUniverseFromArrangement on the same
// arrangement (property-tested via Fingerprint). InsertUniverse fails —
// and the caller should fall back to the cold build — when the arrangement
// carries no provenance or derives from a different generation than the
// parent universe.
func InsertUniverse(ctx context.Context, parent *Universe, a *arrange.Arrangement, in *spatial.Instance) (*Universe, error) {
	if parent == nil || a == nil {
		return nil, fmt.Errorf("folang: InsertUniverse needs a parent universe and a derived arrangement")
	}
	return insertUniverseFrom(ctx, parent, a, in)
}

// InsertUniverseRefined derives the k-refined (k = refine > 0) evaluation
// context from the parent generation's refined universe. It first extends
// the parent's scaffolded arrangement by the added regions via
// arrange.InsertWithScaffoldCtx — the refinement grid is fixed geometry as
// long as the instance bounding box that anchors it is unchanged — and
// then builds the universe over it exactly like InsertUniverse. The
// result is identical to NewUniverse(in, refine)
// (property-tested via Fingerprint).
//
// It fails — and the caller should fall back to the cold build — when the
// parent was refined at a different k, or when the delta grows the
// instance bounding box: GridScaffold(in, refine) then differs from the
// parent's scaffold and the error wraps arrange.ErrScaffoldMoved.
func InsertUniverseRefined(ctx context.Context, parent *Universe, in *spatial.Instance, refine int, added ...string) (*Universe, error) {
	if parent == nil {
		return nil, fmt.Errorf("folang: InsertUniverseRefined needs a parent universe")
	}
	if refine <= 0 {
		return nil, fmt.Errorf("folang: InsertUniverseRefined: refine %d is not positive; use InsertUniverse", refine)
	}
	if parent.refine != refine {
		return nil, fmt.Errorf("folang: InsertUniverseRefined: parent universe is refined at k=%d, not k=%d", parent.refine, refine)
	}
	a, err := arrange.InsertWithScaffoldCtx(ctx, parent.A, in, GridScaffold(in, refine), added...)
	if err != nil {
		return nil, err
	}
	u, err := insertUniverseFrom(ctx, parent, a, in)
	if err != nil {
		return nil, err
	}
	u.refine = refine
	return u, nil
}

// insertUniverseFrom is the shared core of InsertUniverse and
// InsertUniverseRefined: check that the arrangement derives from the
// parent universe's arrangement, then build the universe over it.
func insertUniverseFrom(ctx context.Context, parent *Universe, a *arrange.Arrangement, in *spatial.Instance) (*Universe, error) {
	if p := a.Prov(); p == nil || p.Parent != parent.A {
		return nil, fmt.Errorf("folang: InsertUniverse: arrangement was not derived from the parent universe's arrangement")
	}
	return newUniverseFrom(ctx, a, in)
}
