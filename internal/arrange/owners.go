package arrange

import "sync/atomic"

// Owners is an interned owner-set handle: a small integer naming one
// canonical set of region indices inside an OwnerPool (region i owns an
// edge when the edge lies on i's boundary). Handles are ==-comparable
// within their pool — the pool canonicalizes, so equal handles mean equal
// sets and vice versa, which is what the invariant's edge-chain merge and
// Insert's union paths rely on — while the sets themselves are sorted
// member lists, so the region count is bounded only by the configurable
// budget (SetRegionBudget), not by a compile-time array size.
//
// The zero handle is always the empty set (scaffold edges), so zero-valued
// Owners are meaningful without a pool.
type Owners uint32

// NoOwners is the empty owner set, valid in every pool.
const NoOwners Owners = 0

// IsEmpty reports whether the set has no owners (scaffold edges).
func (o Owners) IsEmpty() bool { return o == NoOwners }

// OwnerPool canonicalizes owner sets into Owners handles. A pool belongs
// to one arrangement: it is mutated only during that arrangement's
// construction (single-goroutine) and is read-only afterwards, so
// concurrent readers of a finished arrangement need no locking. An
// incremental derivation (Insert) never extends the parent's pool — it
// clones it (cheap: the interned member lists are immutable and shared)
// and extends the clone, so snapshots of older generations keep reading
// their own pool untouched.
//
// Each interned set is stored as its ascending member list (plus an
// equal-size map key), so a set costs O(members), independent of the
// region count: an edge lies on one or two boundaries, and the pool of an
// arrangement stays linear in its distinct owner sets at any budget.
//
// topolint:frozen — once an arrangement is published its pool is
// read-only; the only sanctioned writer is the construction-phase intern.
type OwnerPool struct {
	sets  [][]int32         // handle -> ascending member region indices
	index map[string]Owners // canonical byte key -> handle
}

// NewOwnerPool returns a pool holding only the empty set at handle 0.
func NewOwnerPool() *OwnerPool {
	return &OwnerPool{
		sets:  [][]int32{nil},
		index: map[string]Owners{"": NoOwners},
	}
}

// Clone returns an independent pool with the same interned sets at the
// same handles. The member lists are shared — they are immutable once
// interned — so a clone costs one slice-header copy per set plus the map.
func (p *OwnerPool) Clone() *OwnerPool {
	q := &OwnerPool{
		sets:  append(make([][]int32, 0, len(p.sets)), p.sets...),
		index: make(map[string]Owners, len(p.index)),
	}
	for k, v := range p.index {
		q.index[k] = v
	}
	return q
}

// Len returns the number of distinct interned sets (including the empty
// set).
func (p *OwnerPool) Len() int { return len(p.sets) }

// appendOwnerKey packs an ascending member list into the interning map
// key, four little-endian bytes per member.
func appendOwnerKey(b []byte, members []int32) []byte {
	for _, m := range members {
		b = append(b, byte(m), byte(m>>8), byte(m>>16), byte(m>>24))
	}
	return b
}

// intern returns the handle of the set with the given ascending members,
// creating it if new. The caller must not retain members — the pool may
// alias it.
//
// topolint:mutator — construction-phase writer: every call path runs
// either single-goroutine during Build, or against a Clone during Insert
// (parent pools are never extended; see the type comment).
func (p *OwnerPool) intern(members []int32) Owners {
	var buf [32]byte
	k := appendOwnerKey(buf[:0], members)
	if h, ok := p.index[string(k)]; ok {
		return h
	}
	h := Owners(len(p.sets))
	p.sets = append(p.sets, members[:len(members):len(members)])
	p.index[string(k)] = h
	return h
}

// remapAll interns every set of src with its members mapped through the
// ascending index map regions (so mapped lists stay sorted) and returns
// the handle translation, indexed by src handle.
func (p *OwnerPool) remapAll(src *OwnerPool, regions []int) []Owners {
	total := 0
	for _, set := range src.sets {
		total += len(set)
	}
	backing := make([]int32, 0, total)
	out := make([]Owners, len(src.sets))
	for h, set := range src.sets {
		if h == int(NoOwners) {
			continue
		}
		start := len(backing)
		for _, ri := range set {
			backing = append(backing, int32(regions[ri]))
		}
		out[h] = p.intern(backing[start:])
	}
	return out
}

// Has reports whether region index i is in the set.
func (p *OwnerPool) Has(o Owners, i int) bool {
	m := p.sets[o]
	k := searchMember(m, i)
	return k < len(m) && int(m[k]) == i
}

// searchMember returns the position of the first member ≥ i.
func searchMember(m []int32, i int) int {
	lo, hi := 0, len(m)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if int(m[h]) < i {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// With returns the handle of the set with region index i added.
func (p *OwnerPool) With(o Owners, i int) Owners {
	old := p.sets[o]
	k := searchMember(old, i)
	if k < len(old) && int(old[k]) == i {
		return o
	}
	m := make([]int32, 0, len(old)+1)
	m = append(append(append(m, old[:k]...), int32(i)), old[k:]...)
	return p.intern(m)
}

// Union returns the handle of the set union.
func (p *OwnerPool) Union(o, q Owners) Owners {
	if o == q || q == NoOwners {
		return o
	}
	if o == NoOwners {
		return q
	}
	a, b := p.sets[o], p.sets[q]
	m := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			m = append(m, a[i])
			i++
		case b[j] < a[i]:
			m = append(m, b[j])
			j++
		default:
			m = append(m, a[i])
			i, j = i+1, j+1
		}
	}
	m = append(append(m, a[i:]...), b[j:]...)
	return p.intern(m)
}

// Count returns the number of owners in the set.
func (p *OwnerPool) Count(o Owners) int { return len(p.sets[o]) }

// members returns the set's interned member list; callers must not modify
// it.
func (p *OwnerPool) members(o Owners) []int32 { return p.sets[o] }

// Members returns the set's region indices in ascending order.
func (p *OwnerPool) Members(o Owners) []int {
	m := p.sets[o]
	out := make([]int, len(m))
	for k, ri := range m {
		out[k] = int(ri)
	}
	return out
}

// defaultRegionBudget is the region-count ceiling a fresh process accepts:
// comfortably past the old 256-region structural cap, low enough that a
// runaway bulk load fails fast instead of building a pathological
// arrangement. Raise it with SetRegionBudget for larger instances — the
// owner-set representation itself is unbounded.
const defaultRegionBudget = 4096

var regionBudget atomic.Int64

func init() { regionBudget.Store(defaultRegionBudget) }

// RegionBudget returns the current region-count budget.
func RegionBudget() int { return int(regionBudget.Load()) }

// SetRegionBudget sets the largest region count Build and Insert accept,
// returning the previous setting. The budget is an admission-control
// knob, not a structural limit: owner sets are interned member lists and
// labels hold only their non-Exterior entries, so any budget the machine's
// memory supports is valid. Values < 1 are clamped to 1.
func SetRegionBudget(n int) int {
	if n < 1 {
		n = 1
	}
	return int(regionBudget.Swap(int64(n)))
}
