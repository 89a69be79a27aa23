package db

import "dlsys/internal/invalid"

// Public constructors and query entry points reject bad arguments with a
// typed *invalid.Error naming the entry point, instead of panicking, so
// callers composing queries from user input (the natural-language layer,
// exploration agents) can reject bad requests gracefully.

// checkPreds validates that every predicate names an existing column.
func (t *Table) checkPreds(fn string, preds []Pred) error {
	for _, p := range preds {
		if _, ok := t.colIdx[p.Col]; !ok {
			return invalid.New("db", fn, "unknown column %s", p.Col)
		}
	}
	return nil
}

// checkAgg validates the aggregate identifier.
func checkAgg(fn string, agg Agg) error {
	if agg < AggCount || agg > AggStd {
		return invalid.New("db", fn, "unknown aggregate %d", int(agg))
	}
	return nil
}

// checkHistInput validates histogram-constructor arguments.
func checkHistInput(fn string, values []float64, buckets int) error {
	if len(values) == 0 {
		return invalid.New("db", fn, "empty input")
	}
	if buckets < 1 {
		return invalid.New("db", fn, "buckets %d < 1", buckets)
	}
	return nil
}

// checkQuery validates a full SELECT agg(col) WHERE preds argument set.
func checkQuery(t *Table, fn string, agg Agg, col string, preds []Pred) error {
	if err := checkAgg(fn, agg); err != nil {
		return err
	}
	if _, ok := t.colIdx[col]; !ok {
		return invalid.New("db", fn, "unknown column %s", col)
	}
	return t.checkPreds(fn, preds)
}
