// Package quant implements the neural-network compression techniques from
// Part 1 of the tutorial (§2.1): linear scalar quantization down to 1 bit,
// k-means codebook (vector) quantization, lossless Huffman coding of
// quantization codes, and an integer-only inference path. Each scheme
// reports its exact storage footprint so experiments can chart the
// accuracy-vs-size tradeoff.
package quant

import (
	"fmt"
	"math"
	"math/rand"

	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// Linear holds a tensor quantized with affine (asymmetric) linear
// quantization: value ≈ Scale·code + Zero, codes in [0, 2^Bits).
type Linear struct {
	Codes []uint16
	Bits  int
	Scale float64
	Zero  float64
	Shape []int
}

// QuantizeLinear quantizes t to the given bit width. The maximum absolute
// reconstruction error is Scale/2 (half a quantization step). Bit widths
// outside [1,16] are a caller error, reported rather than panicking: widths
// often arrive from config files and experiment sweeps, so the library
// boundary validates them.
func QuantizeLinear(t *tensor.Tensor, bits int) (*Linear, error) {
	if bits < 1 || bits > 16 {
		return nil, fmt.Errorf("quant: bits %d out of [1,16]", bits)
	}
	lo, hi := t.Min(), t.Max()
	levels := float64(uint32(1)<<bits - 1)
	scale := (hi - lo) / levels
	if scale == 0 {
		scale = 1 // constant tensor: all codes 0, zero = lo
	}
	q := &Linear{
		Codes: make([]uint16, t.Size()),
		Bits:  bits,
		Scale: scale,
		Zero:  lo,
		Shape: append([]int(nil), t.Shape()...),
	}
	for i, v := range t.Data {
		c := math.Round((v - lo) / scale)
		if c < 0 {
			c = 0
		}
		if c > levels {
			c = levels
		}
		q.Codes[i] = uint16(c)
	}
	return q, nil
}

// Dequantize reconstructs the tensor.
func (q *Linear) Dequantize() *tensor.Tensor {
	t := tensor.New(q.Shape...)
	for i, c := range q.Codes {
		t.Data[i] = q.Scale*float64(c) + q.Zero
	}
	return t
}

// Bytes returns the packed storage size: Bits per code plus the 16-byte
// scale/zero header.
func (q *Linear) Bytes() int64 {
	return (int64(len(q.Codes))*int64(q.Bits)+7)/8 + 16
}

// MaxError returns the worst-case reconstruction error bound, Scale/2.
func (q *Linear) MaxError() float64 { return q.Scale / 2 }

// Codebook holds a tensor quantized against a learned codebook (k-means
// "vector quantization" in its scalar-codebook form, as used by Deep
// Compression): value ≈ Codebook[code].
type Codebook struct {
	Codes    []uint16
	Centers  []float64
	Shape    []int
	CodeBits int
}

// QuantizeKMeans learns a k-entry codebook over t's values with Lloyd's
// algorithm and assigns each value to its nearest center. A codebook size
// outside [2, 65536] is reported as an error.
func QuantizeKMeans(rng *rand.Rand, t *tensor.Tensor, k, iters int) (*Codebook, error) {
	if k < 2 || k > 65536 {
		return nil, fmt.Errorf("quant: k %d out of [2,65536]", k)
	}
	if t.Size() < k {
		k = t.Size()
	}
	// Initialise centers at evenly-spaced quantiles for determinism and
	// good coverage.
	sorted := append([]float64(nil), t.Data...)
	insertionSortF(sorted)
	centers := make([]float64, k)
	for c := range centers {
		idx := c * (len(sorted) - 1) / (k - 1)
		centers[c] = sorted[idx]
	}
	codes := make([]uint16, t.Size())
	for iter := 0; iter < iters; iter++ {
		// Assign.
		changed := false
		for i, v := range t.Data {
			best := nearestCenter(centers, v)
			if codes[i] != uint16(best) {
				codes[i] = uint16(best)
				changed = true
			}
		}
		// Update.
		sum := make([]float64, k)
		cnt := make([]int, k)
		for i, v := range t.Data {
			sum[codes[i]] += v
			cnt[codes[i]]++
		}
		for c := range centers {
			if cnt[c] > 0 {
				centers[c] = sum[c] / float64(cnt[c])
			} else {
				// Re-seed an empty cluster at a random value.
				centers[c] = t.Data[rng.Intn(t.Size())]
			}
		}
		if !changed && iter > 0 {
			break
		}
	}
	// Final assignment against the updated centers.
	for i, v := range t.Data {
		codes[i] = uint16(nearestCenter(centers, v))
	}
	bits := 1
	for (1 << bits) < k {
		bits++
	}
	return &Codebook{Codes: codes, Centers: centers, Shape: append([]int(nil), t.Shape()...), CodeBits: bits}, nil
}

func nearestCenter(centers []float64, v float64) int {
	best, bestD := 0, math.Abs(centers[0]-v)
	for c := 1; c < len(centers); c++ {
		if d := math.Abs(centers[c] - v); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// insertionSortF sorts in place; sizes here are small enough that the
// simple algorithm is fine and avoids importing sort for a float slice.
func insertionSortF(a []float64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// Dequantize reconstructs the tensor from the codebook.
func (q *Codebook) Dequantize() *tensor.Tensor {
	t := tensor.New(q.Shape...)
	for i, c := range q.Codes {
		t.Data[i] = q.Centers[c]
	}
	return t
}

// Bytes returns packed code storage plus the float64 codebook.
func (q *Codebook) Bytes() int64 {
	return (int64(len(q.Codes))*int64(q.CodeBits)+7)/8 + int64(len(q.Centers))*8
}

// QuantizeNetwork returns a copy of the network's weights after a
// quantize-dequantize round trip at the given bit width ("simulated
// quantization"), leaving net untouched, plus the quantized storage size.
// Callers apply the returned state dict to a clone to measure accuracy. An
// out-of-range bit width is reported as an error before any work is done.
func QuantizeNetwork(net *nn.Network, bits int) (state map[string][]float64, bytes int64, err error) {
	state = net.StateDict()
	for _, p := range net.Params() {
		q, err := QuantizeLinear(p.Value, bits)
		if err != nil {
			return nil, 0, err
		}
		bytes += q.Bytes()
		state[p.Name] = q.Dequantize().Data
	}
	return state, bytes, nil
}
