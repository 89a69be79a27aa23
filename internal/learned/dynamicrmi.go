package learned

import (
	"sort"

	"dlsys/internal/invalid"
)

// DynamicRMI extends the static RMI with insert support — the "extending
// and managing learned access methods" open question Part 2 raises. New
// keys go to a sorted delta buffer probed alongside the model; when the
// buffer outgrows a fraction of the indexed set, it is merged and the
// models are retrained (the standard delta+rebuild design).
type DynamicRMI struct {
	keys  []uint64 // sorted, model-indexed
	rmi   *RMI
	delta []uint64 // sorted buffer of pending inserts
	// RebuildFraction triggers a merge when len(delta) exceeds this
	// fraction of len(keys). Default 0.1.
	RebuildFraction float64
	leaves          int
	rebuilds        int
}

// NewDynamicRMI builds a dynamic index over the initial sorted keys. A typed
// *invalid.Error rejects an empty key set or a non-positive leaf count,
// mirroring BuildRMI's validation.
func NewDynamicRMI(keys []uint64, leaves int) (*DynamicRMI, error) {
	owned := append([]uint64(nil), keys...)
	rmi, err := BuildRMI(owned, leaves)
	if err != nil {
		return nil, invalid.New("learned", "NewDynamicRMI", "%s", err.(*invalid.Error).Reason)
	}
	return &DynamicRMI{
		keys:            owned,
		rmi:             rmi,
		RebuildFraction: 0.1,
		leaves:          leaves,
	}, nil
}

// Len returns the number of indexed keys (including buffered inserts).
func (d *DynamicRMI) Len() int { return len(d.keys) + len(d.delta) }

// Rebuilds returns how many merge+retrain cycles have occurred.
func (d *DynamicRMI) Rebuilds() int { return d.rebuilds }

// Insert adds a key. Duplicate inserts are ignored.
func (d *DynamicRMI) Insert(key uint64) {
	if d.Contains(key) {
		return
	}
	i := sort.Search(len(d.delta), func(i int) bool { return d.delta[i] >= key })
	d.delta = append(d.delta, 0)
	copy(d.delta[i+1:], d.delta[i:])
	d.delta[i] = key
	// >= makes the threshold itself trigger: with 100 keys at fraction 0.1
	// the 11th buffered insert (10+1) rebuilds, not the 12th. The +1 floor
	// keeps tiny key sets from rebuilding on every single insert.
	if float64(len(d.delta)) >= d.RebuildFraction*float64(len(d.keys))+1 {
		d.rebuild()
	}
}

// rebuild merges the delta buffer into the key array and refits the models.
func (d *DynamicRMI) rebuild() {
	merged := make([]uint64, 0, len(d.keys)+len(d.delta))
	i, j := 0, 0
	for i < len(d.keys) && j < len(d.delta) {
		if d.keys[i] <= d.delta[j] {
			merged = append(merged, d.keys[i])
			i++
		} else {
			merged = append(merged, d.delta[j])
			j++
		}
	}
	merged = append(merged, d.keys[i:]...)
	merged = append(merged, d.delta[j:]...)
	d.keys = merged
	d.delta = d.delta[:0]
	rmi, err := BuildRMI(d.keys, d.leaves)
	if err != nil {
		// Unreachable: the constructor validated keys and leaves, and a merge
		// only ever grows the key set.
		panic("learned: DynamicRMI.rebuild: " + err.Error())
	}
	d.rmi = rmi
	d.rebuilds++
}

// Contains reports whether the key is present (model-indexed or buffered).
func (d *DynamicRMI) Contains(key uint64) bool {
	if _, ok := d.rmi.Lookup(d.keys, key); ok {
		return true
	}
	i := sort.Search(len(d.delta), func(i int) bool { return d.delta[i] >= key })
	return i < len(d.delta) && d.delta[i] == key
}

// Rank returns the number of indexed keys strictly less than key — the
// position query a learned index serves. It combines the model-indexed
// array with the delta buffer.
func (d *DynamicRMI) Rank(key uint64) int {
	// Binary search over the main array, seeded by the model's window.
	main := sort.Search(len(d.keys), func(i int) bool { return d.keys[i] >= key })
	buf := sort.Search(len(d.delta), func(i int) bool { return d.delta[i] >= key })
	return main + buf
}

// MemoryBytes accounts the models plus the delta buffer (the key array
// itself is the data, not the index, matching RMI accounting).
func (d *DynamicRMI) MemoryBytes() int64 {
	return d.rmi.MemoryBytes() + int64(len(d.delta))*8
}
