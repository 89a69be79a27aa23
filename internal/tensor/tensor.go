// Package tensor implements a small dense tensor library used throughout
// dlsys. Tensors are row-major, contiguous float64 arrays with an explicit
// shape. The package provides the algebra needed by the neural-network
// engine: element-wise arithmetic, matrix multiplication, reductions,
// broadcasting over the leading axis, and im2col-based convolution support.
//
// Everything is pure Go and deterministic; random initialisation takes an
// explicit *rand.Rand.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense, row-major, contiguous array of float64 values with an
// explicit shape. The zero value is not usable; construct tensors with New,
// FromSlice, or one of the random initialisers.
type Tensor struct {
	shape []int
	// Data holds the elements in row-major order. It is exported so hot
	// loops (optimizers, codecs) can operate on the raw slice without
	// per-element bounds checks through At/Set.
	Data []float64
}

// New returns a zero-filled tensor with the given shape. It panics (with a
// typed *Error) if any dimension is negative or the shape is empty.
func New(shape ...int) *Tensor {
	n, err := checkShape(shape)
	must(err)
	return &Tensor{shape: append([]int(nil), shape...), Data: make([]float64, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); it panics if len(data) does not match the shape.
func FromSlice(data []float64, shape ...int) *Tensor {
	return mustT(FromSliceChecked(data, shape...))
}

// FromSliceChecked is FromSlice returning an error instead of panicking.
func FromSliceChecked(data []float64, shape ...int) (*Tensor, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, errf("FromSlice", "data length %d does not match shape %v (need %d)", len(data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: data}, nil
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

func checkShape(shape []int) (int, error) {
	if len(shape) == 0 {
		return 0, errf("New", "empty shape")
	}
	n := 1
	for _, d := range shape {
		if d < 0 {
			return 0, errf("New", "negative dimension in shape %v", shape)
		}
		n *= d
	}
	return n, nil
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dim returns the size of axis i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Rank returns the number of axes.
func (t *Tensor) Rank() int { return len(t.shape) }

// Size returns the total number of elements.
func (t *Tensor) Size() int { return len(t.Data) }

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.shape) != len(u.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != u.shape[i] {
			return false
		}
	}
	return true
}

// offset computes the flat index for the given multi-axis index.
func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(errf("At", "index %v does not match rank %d", idx, len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(errf("At", "index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given multi-axis index.
func (t *Tensor) At(idx ...int) float64 { return t.Data[t.offset(idx)] }

// Set stores v at the given multi-axis index.
func (t *Tensor) Set(v float64, idx ...int) { t.Data[t.offset(idx)] = v }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape of the same
// total size. One dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	return mustT(t.ReshapeChecked(shape...))
}

// ReshapeChecked is Reshape returning an error instead of panicking.
func (t *Tensor) ReshapeChecked(shape ...int) (*Tensor, error) {
	out := append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range out {
		if d == -1 {
			if infer >= 0 {
				return nil, errf("Reshape", "at most one -1 dimension")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			return nil, errf("Reshape", "cannot infer dimension reshaping %v to %v", t.shape, shape)
		}
		out[infer] = len(t.Data) / known
	}
	if n, err := checkShape(out); err != nil {
		return nil, err
	} else if n != len(t.Data) {
		return nil, errf("Reshape", "cannot reshape %v (size %d) to %v", t.shape, len(t.Data), shape)
	}
	return &Tensor{shape: out, Data: t.Data}, nil
}

// Row returns a view of row i of a rank-2 tensor as a slice.
func (t *Tensor) Row(i int) []float64 {
	if len(t.shape) != 2 {
		panic(errf("Row", "requires rank 2, got %v", t.shape))
	}
	c := t.shape[1]
	return t.Data[i*c : (i+1)*c]
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Zero sets every element of t to 0.
func (t *Tensor) Zero() { t.Fill(0) }

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.shape)
	if len(t.Data) <= 16 {
		fmt.Fprintf(&b, "%v", t.Data)
	} else {
		fmt.Fprintf(&b, "[%g %g %g ... %g]", t.Data[0], t.Data[1], t.Data[2], t.Data[len(t.Data)-1])
	}
	return b.String()
}
