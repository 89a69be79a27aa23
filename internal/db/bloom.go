package db

import (
	"math"

	"dlsys/internal/invalid"
)

// Bloom is a classic Bloom filter over uint64 keys with k independent hash
// probes derived by double hashing.
type Bloom struct {
	bits  []uint64
	m     uint64 // number of bits
	k     int    // number of probes
	count int
}

// NewBloom sizes a filter for n expected keys at the target false-positive
// rate using the standard formulas m = -n·lnp/(ln2)² and k = (m/n)·ln2.
// A typed error rejects a false-positive rate outside (0,1).
func NewBloom(n int, fpr float64) (*Bloom, error) {
	if n < 1 {
		n = 1
	}
	if !(fpr > 0 && fpr < 1) { // false for NaN too
		return nil, invalid.New("db", "NewBloom", "fpr %g outside (0,1)", fpr)
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fpr) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return &Bloom{bits: make([]uint64, (m+63)/64), m: m, k: k}, nil
}

// NewBloomBits builds a filter with an explicit bit budget and probe count,
// used when comparing against learned filters at a fixed memory budget.
func NewBloomBits(mBits uint64, k int) *Bloom {
	if mBits < 64 {
		mBits = 64
	}
	if k < 1 {
		k = 1
	}
	return &Bloom{bits: make([]uint64, (mBits+63)/64), m: mBits, k: k}
}

// hash2 derives two independent 64-bit hashes from the key (splitmix64
// finalizers with different constants).
func hash2(key uint64) (uint64, uint64) {
	h1 := mix(key + 0x9E3779B97F4A7C15)
	h2 := mix(key ^ 0xBF58476D1CE4E5B9)
	if h2 == 0 {
		h2 = 0x94D049BB133111EB
	}
	return h1, h2
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Add inserts a key.
func (b *Bloom) Add(key uint64) {
	h1, h2 := hash2(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		b.bits[pos/64] |= 1 << (pos % 64)
	}
	b.count++
}

// MayContain reports whether the key is possibly present (no false
// negatives; false positives at roughly the configured rate).
func (b *Bloom) MayContain(key uint64) bool {
	h1, h2 := hash2(key)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// MemoryBytes returns the filter's resident size.
func (b *Bloom) MemoryBytes() int64 { return int64(len(b.bits))*8 + 24 }

// MeasuredFPR probes the filter with the given absent keys and returns the
// observed false-positive rate.
func (b *Bloom) MeasuredFPR(absent []uint64) float64 {
	if len(absent) == 0 {
		return 0
	}
	fp := 0
	for _, k := range absent {
		if b.MayContain(k) {
			fp++
		}
	}
	return float64(fp) / float64(len(absent))
}
