package tensor

import (
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// BenchmarkGEMM sweeps the kernel hierarchy across the sizes the
// acceptance gate tracks: 64 (below the packing threshold at the margin),
// 256 (packed, at the parallel threshold), and 1024 (fully blocked).
func BenchmarkGEMM(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		x := RandNormal(rng, 0, 1, n, n)
		y := RandNormal(rng, 0, 1, n, n)
		flops := 2 * float64(n) * float64(n) * float64(n)
		b.Run(kindSize("naive", n), func(b *testing.B) {
			out := New(n, n)
			for i := 0; i < b.N; i++ {
				out.Zero()
				matMulRows(x, y, out, 0, n)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
		b.Run(kindSize("tiled", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulTiled(x, y)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
		b.Run(kindSize("auto", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMul(x, y)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
		x32, y32 := ToFloat32(x), ToFloat32(y)
		b.Run(kindSize("f32", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMul32(x32, y32)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

func kindSize(kind string, n int) string {
	return kind + "/" + strconv.Itoa(n)
}

// smallShapes are the sub-threshold products this benchmark times: the six
// Dense-layer shapes of the learned-index and day MLPs, then four shapes
// outside the small tier's rule (one row, or a B too wide for L1).
var smallShapes = []struct{ m, k, n int }{
	{64, 3, 8}, {64, 8, 2}, {16, 6, 24}, {16, 24, 3}, {3, 64, 8}, {8, 64, 2},
	{1, 3, 8}, {1, 512, 512}, {4, 256, 256}, {7, 64, 64},
}

// BenchmarkSmallShapes times the three …Into products with a reused
// destination at every shape in smallShapes: MatMulInto (a·b),
// MatMulTransAInto (aᵀ·b with a stored k×m) and MatMulTransBInto (a·bᵀ
// with b stored n×k), each giving the m×n result. At the first four, the
// Dense forward shapes (batch × in × out), it also times the layer's bias
// add, MatMulAddRowInto with a 1×n row ("NN+row"), and its bias-gradient
// column sum, SumRowsInto of an m×n tensor ("SumRows").
func BenchmarkSmallShapes(b *testing.B) {
	type product struct {
		kind string
		run  func(dst *Tensor) *Tensor
	}
	for si, s := range smallShapes {
		rng := rand.New(rand.NewSource(int64(s.m*s.k + s.n)))
		x := RandNormal(rng, 0, 1, s.m, s.k)
		y := RandNormal(rng, 0, 1, s.k, s.n)
		xt, yt := Transpose(x), Transpose(y)
		name := strconv.Itoa(s.m) + "x" + strconv.Itoa(s.k) + "x" + strconv.Itoa(s.n)
		products := []product{
			{"NN", func(dst *Tensor) *Tensor { return MatMulInto(dst, x, y) }},
			{"TN", func(dst *Tensor) *Tensor { return MatMulTransAInto(dst, xt, y) }},
			{"NT", func(dst *Tensor) *Tensor { return MatMulTransBInto(dst, x, yt) }},
		}
		if si < 4 {
			row, dout := RandNormal(rng, 0, 1, 1, s.n), RandNormal(rng, 0, 1, s.m, s.n)
			products = append(products,
				product{"NN+row", func(dst *Tensor) *Tensor { return MatMulAddRowInto(dst, x, y, row) }},
				product{"SumRows", func(dst *Tensor) *Tensor { return SumRowsInto(dst, dout) }})
		}
		for _, c := range products {
			b.Run(c.kind+"/"+name, func(b *testing.B) {
				dst := c.run(nil)
				for i := 0; i < b.N; i++ {
					c.run(dst)
				}
			})
		}
	}
}

// BenchmarkBatMul measures the batched kernel against per-slice MatMul.
func BenchmarkBatMul(b *testing.B) {
	const bt, n = 8, 128
	rng := rand.New(rand.NewSource(8))
	x := New(bt, n, n)
	y := New(bt, n, n)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BatMul(x, y)
		}
	})
	b.Run("per-slice", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for s := 0; s < bt; s++ {
				av := FromSlice(x.Data[s*n*n:(s+1)*n*n], n, n)
				bv := FromSlice(y.Data[s*n*n:(s+1)*n*n], n, n)
				MatMul(av, bv)
			}
		}
	})
}

// TestTiledNotSlowerThanNaive is the benchmark guardrail: at 1024³ the
// tiled kernel must never regress below the naive loop. It measures one
// timed pass of each (the difference the gate protects is large — the
// tiled kernel is several times faster — so a single pass with a 1.1x
// grace factor is decisive and keeps the test cheap).
func TestTiledNotSlowerThanNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	const n = 1024
	rng := rand.New(rand.NewSource(13))
	a := RandNormal(rng, 0, 1, n, n)
	b := RandNormal(rng, 0, 1, n, n)

	out := New(n, n)
	t0 := time.Now()
	matMulRows(a, b, out, 0, n)
	naive := time.Since(t0)

	t0 = time.Now()
	tiled := MatMulTiled(a, b)
	tiledD := time.Since(t0)

	if !Equal(tiled, out, 0) {
		t.Fatal("tiled kernel diverges from naive at 1024^3")
	}
	if float64(tiledD) > 1.1*float64(naive) {
		t.Fatalf("tiled kernel slower than naive at 1024^3: tiled %v vs naive %v", tiledD, naive)
	}
	t.Logf("1024^3: naive %v, tiled %v (%.2fx)", naive, tiledD, float64(naive)/float64(tiledD))
}
