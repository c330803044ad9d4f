package arrange

import (
	"fmt"
	"maps"
	"sync/atomic"
)

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
// The interning index is built on the first intern, never before: a pool
// assembled by appendMapped (a stitch, a shifted Insert) that is never
// extended never pays for it. index is therefore either nil or complete —
// never stale.
//
// topolint:frozen — once an arrangement is published its pool is
// read-only; the only sanctioned writers are the construction-phase
// intern and appendMapped.
type OwnerPool struct {
	sets  [][]int32         // handle -> ascending member region indices
	index map[string]Owners // canonical byte key -> handle; nil until the first intern
}

// NewOwnerPool returns a pool holding only the empty set at handle 0.
func NewOwnerPool() *OwnerPool {
	return &OwnerPool{sets: [][]int32{nil}}
}

// Clone returns an independent pool with the same interned sets at the
// same handles. The member lists are shared — they are immutable once
// interned — so a clone costs one slice-header copy per set, plus a copy
// of the index when p has built one; p itself is only read.
func (p *OwnerPool) Clone() *OwnerPool {
	q := &OwnerPool{sets: append(make([][]int32, 0, len(p.sets)), p.sets...)}
	if p.index != nil {
		q.index = maps.Clone(p.index)
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
	if p.index == nil {
		p.index = make(map[string]Owners, len(p.sets))
		var kb []byte
		for h, set := range p.sets {
			kb = appendOwnerKey(kb[:0], set)
			p.index[string(kb)] = Owners(h)
		}
	}
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

// appendMapped appends src's non-empty sets to p in handle order, each
// with its members mapped through the ascending index map regions, and
// carves the mapped lists from mem's spare capacity, returning mem grown.
// src handle h > 0 lands at handle p.Len()-1+h, p.Len() taken before the
// call.
//
// Nothing is interned, which yields exactly intern's handles as long as
// no mapped set equals another or one already in p: src's sets are
// distinct (interning canonicalizes) and regions is injective, so they
// stay distinct among themselves, and Stitch, which appends every shard's
// pool into one, maps them through the shards' disjoint member lists. The
// index is dropped, so the next intern rebuilds it over every set.
//
// topolint:mutator — construction-phase writer, like intern.
func (p *OwnerPool) appendMapped(src *OwnerPool, regions []int, mem []int32) []int32 {
	for _, set := range src.sets[1:] {
		start := len(mem)
		for _, ri := range set {
			mem = append(mem, int32(regions[ri]))
		}
		p.sets = append(p.sets, mem[start:len(mem):len(mem)])
	}
	p.index = nil
	return mem
}

// memberCount returns the total member count over the pool's sets.
func (p *OwnerPool) memberCount() int {
	n := 0
	for _, set := range p.sets {
		n += len(set)
	}
	return n
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

// checkBudget fails with an error wrapping ErrTooManyRegions when an
// instance of n regions exceeds the region budget.
func checkBudget(n int) error {
	if budget := RegionBudget(); n > budget {
		return fmt.Errorf("arrange: %w: %d regions exceed the region budget of %d (raise it with SetRegionBudget)",
			ErrTooManyRegions, n, budget)
	}
	return nil
}

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
