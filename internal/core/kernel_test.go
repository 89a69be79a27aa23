package core

import (
	"math/rand"
	"testing"

	"dlsys/internal/tensor"
)

// TestKernelBenchmark pins the contract that makes X13's kernel numbers
// count: on the quick 256³ GEMM cell, the size the benchmark's gemm
// workload multiplies at quick scale, the fast float64 tiers (MatMulTiled
// and the pooled MatMul) are bit-identical to the serial MatMulRef.
func TestKernelBenchmark(t *testing.T) {
	if testing.Short() {
		t.Skip("X13 256³ cell skipped in -short mode")
	}
	const n = 256
	rng := rand.New(rand.NewSource(300 + n))
	a := tensor.RandNormal(rng, 0, 1, n, n)
	b := tensor.RandNormal(rng, 0, 1, n, n)
	ref := tensor.MatMulRef(a, b)
	if !tensor.Equal(tensor.MatMulTiled(a, b), ref, 0) {
		t.Error("MatMulTiled diverged from the serial reference at 256³")
	}
	if !tensor.Equal(tensor.MatMul(a, b), ref, 0) {
		t.Error("MatMul diverged from the serial reference at 256³")
	}
}
