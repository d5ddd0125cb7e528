package influence

import (
	"maps"
	"slices"
)

// DomainIndex interns domain names into dense integer slots so the hot
// aggregation loops can work on flat []float64 slabs instead of chasing
// map-of-maps buckets. The index is append-only while an analysis builds
// it; every published Result holds its own immutable copy, so readers of a
// snapshot never race a later analysis interning new names.
type DomainIndex struct {
	names []string
	idx   map[string]int
}

func newDomainIndex() *DomainIndex {
	return &DomainIndex{idx: map[string]int{}}
}

// intern returns the slot of name, assigning the next free slot on first
// sight.
func (d *DomainIndex) intern(name string) int {
	if i, ok := d.idx[name]; ok {
		return i
	}
	i := len(d.names)
	d.names = append(d.names, name)
	d.idx[name] = i
	return i
}

// lookup returns the slot of name without interning.
func (d *DomainIndex) lookup(name string) (int, bool) {
	i, ok := d.idx[name]
	return i, ok
}

// Len reports the number of interned domains.
func (d *DomainIndex) Len() int { return len(d.names) }

// Names returns the interned domain names in slot order. The slice is
// shared; callers must not modify it.
func (d *DomainIndex) Names() []string { return d.names }

// clone returns an independent copy, safe to freeze into a Result while
// the original keeps interning.
func (d *DomainIndex) clone() *DomainIndex {
	return &DomainIndex{names: slices.Clone(d.names), idx: maps.Clone(d.idx)}
}
