package invariant

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"topodb/internal/spatial"
	"topodb/internal/workload"
)

// canonCase is one golden instance and the invariant it is pinned under.
type canonCase struct {
	in *spatial.Instance
	s  bool // the S-invariant rather than the plain one
}

func (c canonCase) build(in *spatial.Instance) (*T, error) {
	if c.s {
		return SInvariant(in)
	}
	return New(in)
}

// canonCases is the deterministic instance matrix whose canonical
// invariant encodings are pinned in testdata/seed_canon.json: every
// workload generator (at n <= 256) plus the paper fixtures, with the
// S-invariant covered on the small fixtures (its scaffold lines make the
// large generators quadratic). The goldens pin the sparse, name-keyed
// label rendering; TestSparseCanonicalMatchesDense checks that it decides
// the same equalities as the dense rendering the earlier goldens pinned.
func canonCases() map[string]canonCase {
	plain := func(in *spatial.Instance) canonCase { return canonCase{in: in} }
	s := func(in *spatial.Instance) canonCase { return canonCase{in: in, s: true} }
	return map[string]canonCase{
		"rect_grid_16":       plain(workload.RectGrid(4)),
		"overlap_chain_16":   plain(workload.OverlapChain(16)),
		"nested_rings_8":     plain(workload.NestedRings(8)),
		"county_mesh_16":     plain(workload.CountyMesh(4)),
		"lens_stack_12":      plain(workload.LensStack(12)),
		"circle_pair_24":     plain(workload.CirclePair(24)),
		"sparse_scatter_120": plain(workload.SparseScatter(120)),
		"city_blocks_16":     plain(workload.CityBlocks(8)),
		"many_regions_256":   plain(workload.ManyRegions(256)),
		"fig1a":              plain(spatial.Fig1a()),
		"fig1b":              plain(spatial.Fig1b()),
		"fig1c":              plain(spatial.Fig1c()),
		"fig1d":              plain(spatial.Fig1d()),
		"interlocked_o":      plain(spatial.InterlockedO()),
		"s_fig1a":            s(spatial.Fig1a()),
		"s_fig1b":            s(spatial.Fig1b()),
		"s_fig1c":            s(spatial.Fig1c()),
		"s_fig1d":            s(spatial.Fig1d()),
	}
}

const canonGoldenPath = "testdata/seed_canon.json"

// TestSeedCanonicalStable checks every golden case's canonical encoding
// hash against the committed value: canonical encodings for instances at
// n <= 256 must never move across representation refactors. Regenerate
// with TOPODB_UPDATE_GOLDENS=1 only for an intentional encoding change.
func TestSeedCanonicalStable(t *testing.T) {
	cases := canonCases()
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	got := make(map[string]string)
	for _, name := range names {
		c := cases[name]
		inv, err := c.build(c.in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = fmt.Sprintf("%x", sha256.Sum256([]byte(inv.Canonical())))
	}
	if os.Getenv("TOPODB_UPDATE_GOLDENS") != "" {
		if err := os.MkdirAll(filepath.Dir(canonGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(canonGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden encodings to %s", len(got), canonGoldenPath)
		return
	}
	data, err := os.ReadFile(canonGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with TOPODB_UPDATE_GOLDENS=1): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no committed golden encoding", name)
			continue
		}
		if got[name] != w {
			t.Errorf("%s: canonical hash %s differs from committed seed %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: committed golden has no matching case", name)
		}
	}
}
