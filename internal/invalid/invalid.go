// Package invalid holds the one error type every subsystem returns for
// input it rejects: a config field, or an entry point's argument, that
// cannot run. Callers screen bad input from any subsystem with the same
// errors.As target, *invalid.Error.
//
// Validation calls Finite first. NaN fails every comparison, so a range
// check written as "v < lo || v > hi" lets it through, and a zero-means-
// default rule would replace a -Inf it never saw. Finite names the first
// NaN or ±Inf field before any range check runs.
//
// tensor.Error stays a type of its own: it names the tensor operation whose
// shapes do not fit, mostly as the panic value of a programming error,
// while an *invalid.Error names the package and field of a rejected input.
package invalid

import (
	"fmt"
	"math"
)

// Error reports one rejected input, printed as "pkg: field: reason".
type Error struct {
	Pkg    string // the rejecting package, e.g. "serve"
	Field  string // the config field ("Replicas[2].Efficiency") or entry point ("BuildRMI")
	Reason string // why the value cannot run, with the value itself where it helps
}

func (e *Error) Error() string { return e.Pkg + ": " + e.Field + ": " + e.Reason }

// New builds an *Error whose Reason is fmt.Sprintf(format, args...).
func New(pkg, field, format string, args ...any) *Error {
	return &Error{Pkg: pkg, Field: field, Reason: fmt.Sprintf(format, args...)}
}

// Field is one named float input for Finite.
type Field struct {
	Name  string
	Value float64
}

// F names a float input for Finite.
func F(name string, v float64) Field { return Field{name, v} }

// Finite returns an *Error naming the first NaN or ±Inf field, or nil when
// every field is finite.
func Finite(pkg string, fields ...Field) error {
	for _, f := range fields {
		if math.IsNaN(f.Value) || math.IsInf(f.Value, 0) {
			return New(pkg, f.Name, "%g is not finite", f.Value)
		}
	}
	return nil
}
