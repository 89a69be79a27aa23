package invalid

import (
	"errors"
	"math"
	"testing"
)

func TestErrorPrintsPkgFieldReason(t *testing.T) {
	err := New("serve", "Replicas[2].Efficiency", "%g out of (0,1]", 1.5)
	if got, want := err.Error(), "serve: Replicas[2].Efficiency: 1.5 out of (0,1]"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
}

func TestFiniteNamesFirstNonFiniteField(t *testing.T) {
	if err := Finite("fault", F("A", 0), F("B", -3.5), F("C", math.MaxFloat64)); err != nil {
		t.Fatalf("finite fields rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := Finite("fault", F("A", 1), F("B", bad), F("C", math.NaN()))
		var e *Error
		if !errors.As(err, &e) || e.Pkg != "fault" || e.Field != "B" {
			t.Fatalf("%g: got %v, want an *Error on fault field B", bad, err)
		}
	}
}
