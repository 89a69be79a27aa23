package learned

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"dlsys/internal/fault"
)

// Corrupt an RMI's internal models deterministically (driven by the fault
// injector) and verify Lookup degrades to correct-but-slower full binary
// search rather than returning wrong positions or missing present keys.
func TestRMILookupSurvivesCorruptedLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	keys := make([]uint64, 5000)
	seen := map[uint64]bool{}
	for i := range keys {
		for {
			k := uint64(rng.Int63n(1 << 40))
			if !seen[k] {
				seen[k] = true
				keys[i] = k
				break
			}
		}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

	poisons := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	inj := fault.NewInjector(fault.Config{Seed: 77, Schedule: []fault.Window{{Kind: fault.KindCorrupt, Prob: 0.4}}})
	for round := 0; round < 3; round++ {
		r := must(BuildRMI(keys, 64))
		// Deterministically corrupt ~40% of leaves: poison the slope, the
		// intercept, or invert the error window.
		corrupted := 0
		for l := range r.leaves {
			if !inj.Corrupts(l, round, 0) {
				continue
			}
			corrupted++
			switch l % 3 {
			case 0:
				r.leaves[l].model.A = poisons[round%len(poisons)]
			case 1:
				r.leaves[l].model.B = poisons[(round+1)%len(poisons)]
			case 2:
				r.leaves[l].errLo, r.leaves[l].errHi = 5, -5 // inverted window
			}
		}
		if corrupted == 0 {
			t.Fatal("injector corrupted no leaves at rate 0.4")
		}
		for i, k := range keys {
			pos, ok := r.Lookup(keys, k)
			if !ok || pos != i {
				t.Fatalf("round %d: key %d lookup = (%d,%v), want (%d,true)", round, k, pos, ok, i)
			}
		}
		// Absent keys must still report absent.
		for probe := 0; probe < 200; probe++ {
			k := uint64(rng.Int63n(1 << 40))
			if seen[k] {
				continue
			}
			if _, ok := r.Lookup(keys, k); ok {
				t.Fatalf("round %d: absent key %d reported present", round, k)
			}
		}
	}
}

func TestRMILookupSurvivesCorruptedRoot(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i * 17)
	}
	r := must(BuildRMI(keys, 16))
	r.root.A = math.NaN()
	for i, k := range keys {
		pos, ok := r.Lookup(keys, k)
		if !ok || pos != i {
			t.Fatalf("corrupted root: key %d lookup = (%d,%v), want (%d,true)", k, pos, ok, i)
		}
	}
	if _, ok := r.Lookup(keys, 3); ok { // 3 is not a multiple of 17
		t.Fatal("absent key reported present under corrupted root")
	}
}

func TestRMIFullSearchFallbackOnEmptyWindow(t *testing.T) {
	keys := []uint64{2, 4, 6, 8, 10}
	r := must(BuildRMI(keys, 2))
	// Drive a leaf's prediction far outside the array so the clamped window
	// is empty; the fallback must still find every key routed there.
	for l := range r.leaves {
		r.leaves[l].model = linearModel{A: 0, B: 1e9}
		r.leaves[l].errLo, r.leaves[l].errHi = 0, 0
	}
	for i, k := range keys {
		pos, ok := r.Lookup(keys, k)
		if !ok || pos != i {
			t.Fatalf("key %d lookup = (%d,%v), want (%d,true)", k, pos, ok, i)
		}
	}
}
