package nn

import (
	"math/rand"
	"slices"
	"testing"
)

// Every epoch deals one permutation of [0, n) into full batches plus at
// most one short last one, and the permutation is the one a twin generator
// gets by shuffling the identity once per epoch: the draws every trainer's
// pinned values were made with.
func TestBatchesDealOneShufflePerEpoch(t *testing.T) {
	const n, epochs = 12, 3
	for _, c := range []struct {
		name       string
		size, want int
	}{
		{"negative", -1, n},
		{"zero", 0, n},
		{"one", 1, 1},
		{"divisor", 4, 4},
		{"non-divisor", 5, 5},
		{"n", n, n},
		{"n+1", n + 1, n},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng, twin := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
			b := NewBatches(rng, n, c.size)
			if b.Size() != c.want {
				t.Fatalf("Size() = %d, want %d", b.Size(), c.want)
			}
			perm := make([]int, n)
			for i := range perm {
				perm[i] = i
			}
			for e := 0; e < epochs; e++ {
				twin.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
				var dealt, lens []int
				b.Epoch(func(idx []int) {
					dealt = append(dealt, idx...)
					lens = append(lens, len(idx))
				})
				if want := (n + c.want - 1) / c.want; len(lens) != want {
					t.Fatalf("epoch %d: %d batches, want %d", e, len(lens), want)
				}
				for k, l := range lens {
					if l > c.want || l < 1 || (l < c.want && k != len(lens)-1) {
						t.Fatalf("epoch %d: batch sizes %v with size %d", e, lens, c.want)
					}
				}
				sorted := slices.Clone(dealt)
				slices.Sort(sorted)
				for i, v := range sorted {
					if v != i {
						t.Fatalf("epoch %d: batches %v are not a permutation of [0, %d)", e, dealt, n)
					}
				}
				if !slices.Equal(dealt, perm) {
					t.Fatalf("epoch %d: dealt %v, twin's shuffle %v", e, dealt, perm)
				}
			}
			if got, want := rng.Int63(), twin.Int63(); got != want {
				t.Fatalf("after %d epochs the next draw is %d, twin's %d", epochs, got, want)
			}
		})
	}
}
