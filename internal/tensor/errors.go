package tensor

import "fmt"

// Error is the typed value every tensor invariant violation carries. The
// package's algebra panics on programming errors (shape mismatches are
// bugs, like out-of-range slice indexing), and the panic value is always a
// *tensor.Error, so a caller that recovers can tell a tensor invariant
// violation from any other panic by a type assertion. Entry points that
// commonly receive untrusted shapes have Checked variants that return the
// *Error instead of panicking.
type Error struct {
	Op  string // the operation that failed, e.g. "MatMul"
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return "tensor: " + e.Op + ": " + e.Msg }

// errf builds a typed tensor error.
func errf(op, format string, args ...any) *Error {
	return &Error{Op: op, Msg: fmt.Sprintf(format, args...)}
}

// must panics with the typed error when err is non-nil.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// mustT returns t, panicking with the typed error when err is non-nil.
func mustT(t *Tensor, err error) *Tensor {
	must(err)
	return t
}

// checkSameShape returns a typed error when t and u differ in shape.
func checkSameShape(op string, t, u *Tensor) error {
	if !t.SameShape(u) {
		return errf(op, "shape mismatch %v vs %v", t.shape, u.shape)
	}
	return nil
}
