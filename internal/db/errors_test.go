package db

import (
	"errors"
	"math"
	"testing"

	"dlsys/internal/invalid"
)

// must unwraps (value, error) pairs whose arguments are valid by
// construction; a failure is a test bug, so it panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// wantArgErr asserts err is a *invalid.Error from the named entry point.
func wantArgErr(t *testing.T, err error, fn string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: expected an error, got nil", fn)
	}
	var ae *invalid.Error
	if !errors.As(err, &ae) {
		t.Fatalf("%s: error %v is not a *invalid.Error", fn, err)
	}
	if ae.Field != fn {
		t.Fatalf("error names %q, want %q (err: %v)", ae.Field, fn, err)
	}
}

func errTable() *Table {
	tab := NewTable("t", "a", "b")
	must(0, tab.Append(1, 2))
	must(0, tab.Append(3, 4))
	return tab
}

func TestTypedErrorsOnBadArguments(t *testing.T) {
	tab := errTable()
	badPred := []Pred{{Col: "ghost", Lo: 0, Hi: 1}}

	wantArgErr(t, tab.Append(1, 2, 3), "Append")
	if tab.Rows() != 2 {
		t.Fatalf("rejected Append still added a row: %d rows", tab.Rows())
	}
	_, err := tab.Column("ghost")
	wantArgErr(t, err, "Column")

	_, err = tab.Aggregate(AggMean, "ghost", nil)
	wantArgErr(t, err, "Aggregate")
	_, err = tab.Aggregate(Agg(99), "a", nil)
	wantArgErr(t, err, "Aggregate")
	_, err = tab.Aggregate(AggMean, "a", badPred)
	wantArgErr(t, err, "Aggregate")

	_, err = tab.GroupMeans("ghost", "a", 1)
	wantArgErr(t, err, "GroupMeans")
	_, err = tab.GroupMeans("a", "ghost", 1)
	wantArgErr(t, err, "GroupMeans")
	_, err = tab.ColumnQuantiles("ghost", 4)
	wantArgErr(t, err, "ColumnQuantiles")
}

func TestTypedErrorsFromConstructors(t *testing.T) {
	_, err := NewBloom(100, 0)
	wantArgErr(t, err, "NewBloom")
	_, err = NewBloom(100, 1)
	wantArgErr(t, err, "NewBloom")
	_, err = NewBloom(100, math.NaN())
	wantArgErr(t, err, "NewBloom")

	_, err = NewEquiWidth(nil, 8)
	wantArgErr(t, err, "NewEquiWidth")
	_, err = NewEquiWidth([]float64{1, 2}, 0)
	wantArgErr(t, err, "NewEquiWidth")
	_, err = NewEquiDepth(nil, 8)
	wantArgErr(t, err, "NewEquiDepth")

	_, err = NewIndependentEstimator(NewTable("empty", "x"), 8)
	wantArgErr(t, err, "NewIndependentEstimator")

	_, err = NewCanopy(errTable(), 0)
	wantArgErr(t, err, "NewCanopy")
}

func TestTypedErrorsFromQueryEngines(t *testing.T) {
	tab := errTable()
	badPred := []Pred{{Col: "ghost", Lo: 0, Hi: 1}}

	_, err := VectorizedQuery(tab, AggMean, "ghost", nil)
	wantArgErr(t, err, "VectorizedQuery")
	_, err = VectorizedQuery(tab, Agg(-1), "a", nil)
	wantArgErr(t, err, "VectorizedQuery")
	_, err = VectorizedQuery(tab, AggMean, "a", badPred)
	wantArgErr(t, err, "VectorizedQuery")

	_, err = TupleAtATimeQuery(tab, AggMean, "ghost", nil)
	wantArgErr(t, err, "TupleAtATimeQuery")
	_, err = TupleAtATimeQuery(tab, AggMean, "a", badPred)
	wantArgErr(t, err, "TupleAtATimeQuery")

	_, err = NewAggregate(NewScan(tab), AggMean, "ghost").Result()
	wantArgErr(t, err, "Result")

	est := must(NewIndependentEstimator(tab, 4))
	_, err = est.Estimate(badPred)
	wantArgErr(t, err, "Estimate")
}
