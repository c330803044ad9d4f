// Package spatial implements the paper's spatial database model (§2): an
// instance I is a finite set of region names together with a mapping from
// each name to its extent, an open simply connected region of the plane.
package spatial

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"

	"topodb/internal/geom"
	"topodb/internal/region"
)

// Instance is a spatial database instance: names(I) plus ext(I, ·).
// The zero value is an empty instance ready to use.
type Instance struct {
	names []string // sorted
	ext   map[string]region.Region
	gen   uint64 // mutation counter; see Gen
}

// Gen returns the instance's generation: a counter bumped by every
// mutation (Add, including replacement, and UnmarshalJSON). Derived-
// artifact caches stamp their entries with the generation they were
// computed at and discard them when it moves.
func (in *Instance) Gen() uint64 { return in.gen }

// New returns an empty instance.
func New() *Instance {
	return &Instance{ext: make(map[string]region.Region)}
}

// Add inserts (or replaces) the region named name.
func (in *Instance) Add(name string, r region.Region) error {
	if name == "" {
		return fmt.Errorf("spatial: empty region name")
	}
	if r.IsEmpty() {
		return fmt.Errorf("spatial: empty region for %q", name)
	}
	if in.ext == nil {
		in.ext = make(map[string]region.Region)
	}
	if _, dup := in.ext[name]; !dup {
		i := sort.SearchStrings(in.names, name)
		in.names = append(in.names, "")
		copy(in.names[i+1:], in.names[i:])
		in.names[i] = name
	}
	in.ext[name] = r
	in.gen++
	return nil
}

// MustAdd is Add that panics on error (fixtures and tests).
func (in *Instance) MustAdd(name string, r region.Region) *Instance {
	if err := in.Add(name, r); err != nil {
		panic(err)
	}
	return in
}

// Names returns names(I) in sorted order. Callers must not modify it.
func (in *Instance) Names() []string { return in.names }

// Ext returns the extent of name; ok is false if the name is absent.
func (in *Instance) Ext(name string) (region.Region, bool) {
	r, ok := in.ext[name]
	return r, ok
}

// MustExt returns the extent of name, panicking if absent.
func (in *Instance) MustExt(name string) region.Region {
	r, ok := in.ext[name]
	if !ok {
		panic(fmt.Sprintf("spatial: no region %q", name))
	}
	return r
}

// Len returns the number of regions.
func (in *Instance) Len() int { return len(in.names) }

// Box returns the bounding box of all regions; ok is false when empty.
func (in *Instance) Box() (geom.Box, bool) {
	if len(in.names) == 0 {
		return geom.Box{}, false
	}
	b := in.ext[in.names[0]].Box()
	for _, n := range in.names[1:] {
		b = b.Union(in.ext[n].Box())
	}
	return b, true
}

// Boxes returns the bounding box of each region in Names() order. The
// all-pairs classifier uses them to resolve box-disjoint pairs without
// touching the cell complex.
func (in *Instance) Boxes() []geom.Box {
	boxes := make([]geom.Box, len(in.names))
	for i, n := range in.names {
		boxes[i] = in.ext[n].Box()
	}
	return boxes
}

// Clone returns a deep-enough copy (regions are immutable by convention):
// the sorted names and the extent map are copied outright, not re-added
// one by one. The clone's generation is its region count, as if each
// region had been added once.
func (in *Instance) Clone() *Instance {
	return &Instance{
		names: append([]string(nil), in.names...),
		ext:   maps.Clone(in.ext),
		gen:   uint64(len(in.names)),
	}
}

// SameNames reports whether two instances have identical name sets, the
// precondition for G-equivalence in the paper.
func (in *Instance) SameNames(other *Instance) bool {
	if len(in.names) != len(other.names) {
		return false
	}
	for i, n := range in.names {
		if other.names[i] != n {
			return false
		}
	}
	return true
}

// jsonInstance is the wire format used by the CLIs.
type jsonInstance struct {
	Regions []jsonRegion `json:"regions"`
}

type jsonRegion struct {
	Name  string      `json:"name"`
	Class string      `json:"class,omitempty"`
	Ring  [][2]string `json:"ring"` // exact rational coordinates as strings
}

// MarshalJSON encodes the instance with exact rational coordinates.
func (in *Instance) MarshalJSON() ([]byte, error) {
	var out jsonInstance
	for _, n := range in.names {
		r := in.ext[n]
		jr := jsonRegion{Name: n, Class: r.Class().String()}
		for _, p := range r.Ring() {
			jr.Ring = append(jr.Ring, [2]string{p.X.String(), p.Y.String()})
		}
		out.Regions = append(out.Regions, jr)
	}
	return json.Marshal(out)
}

// UnmarshalJSON decodes the wire format, validating each region.
func (in *Instance) UnmarshalJSON(data []byte) error {
	var raw jsonInstance
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	// Continue the generation counter across the reset so caches stamped
	// with a pre-decode generation can never collide with post-decode
	// content.
	gen := in.gen + 1
	*in = *New()
	in.gen = gen
	for _, jr := range raw.Regions {
		ring, err := parseRing(jr.Ring)
		if err != nil {
			return fmt.Errorf("spatial: region %q: %w", jr.Name, err)
		}
		r, err := region.NewPoly(ring)
		if err != nil {
			return fmt.Errorf("spatial: region %q: %w", jr.Name, err)
		}
		if cls, ok := parseClass(jr.Class); ok {
			if rc, err2 := r.AsClass(cls); err2 == nil {
				r = rc
			}
		}
		if err := in.Add(jr.Name, r); err != nil {
			return err
		}
	}
	return nil
}

func parseRing(coords [][2]string) (geom.Ring, error) {
	ring := make(geom.Ring, 0, len(coords))
	for _, c := range coords {
		p, err := parsePt(c)
		if err != nil {
			return nil, err
		}
		ring = append(ring, p)
	}
	return ring, nil
}

func parsePt(c [2]string) (geom.Pt, error) {
	var p geom.Pt
	var err error
	if p.X, err = parseRat(c[0]); err != nil {
		return p, err
	}
	p.Y, err = parseRat(c[1])
	return p, err
}

func parseClass(s string) (region.Class, bool) {
	switch s {
	case "Rect":
		return region.Rect, true
	case "Rect*":
		return region.RectUnion, true
	case "Poly":
		return region.Poly, true
	case "Alg":
		return region.Alg, true
	case "Disc":
		return region.Disc, true
	}
	return 0, false
}
