package topodb

import "sync/atomic"

// Derivation counters: process-global, monotone tallies of how each
// derived artifact was produced, so operators can see whether the warm
// Apply→Query path is actually staying incremental. Modes: cold (full
// recomputation), incremental (derived from the parent generation's
// artifact via delta provenance), aliased (work skipped entirely because
// the artifact — a shard's sub-arrangement — was shared by pointer from
// the parent generation; counted per shard). Refined (k > 0) universes
// tally separately from the unrefined slot, so the scaffold path's warm
// behavior is observable on its own. The unrefined universe and the
// S-invariant are always cold: the former is one linear pass over the
// arrangement, the latter's alignment scaffold shifts globally under any
// delta.
var derivCounters [len(derivationRows)]atomic.Uint64

const (
	derivArrangementCold = iota
	derivArrangementIncremental
	derivArrangementAliased
	derivUniverseCold
	derivUniverseRefinedCold
	derivUniverseRefinedIncremental
	derivInvariantCold
	derivInvariantIncremental
	derivSInvariantCold
)

// derivationRows fixes the (kind, mode, refined) enumeration order — every
// row is always present, zero-valued or not, so scrapes are deterministic.
var derivationRows = [...]struct {
	kind, mode string
	refined    bool
}{
	{"arrangement", "cold", false},
	{"arrangement", "incremental", false},
	{"arrangement", "aliased", false},
	{"universe", "cold", false},
	{"universe", "cold", true},
	{"universe", "incremental", true},
	{"invariant", "cold", false},
	{"invariant", "incremental", false},
	{"sinvariant", "cold", false},
}

// DerivationCount is one row of the artifact-derivation tallies.
type DerivationCount struct {
	Kind    string // arrangement | universe | invariant | sinvariant
	Mode    string // cold | incremental | aliased
	Refined bool   // true for k>0 (scaffolded) universe derivations
	N       uint64
}

// ArtifactDerivationCounts returns the process-wide artifact derivation
// tallies in a fixed (kind, mode, refined) order, including zero rows. The
// counts are cumulative across all Instances in the process; serving tiers
// poll them at scrape time.
func ArtifactDerivationCounts() []DerivationCount {
	out := make([]DerivationCount, len(derivationRows))
	for i, r := range derivationRows {
		out[i] = DerivationCount{Kind: r.kind, Mode: r.mode, Refined: r.refined, N: derivCounters[i].Load()}
	}
	return out
}
