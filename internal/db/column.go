package db

import (
	"math"
	"sort"

	"dlsys/internal/invalid"
)

// Table is a minimal in-memory column store: named float64 columns of equal
// length. It supports predicate scans, aggregation, and group-by — enough
// substrate for selectivity estimation, RL-driven exploration, and knob
// tuning experiments.
type Table struct {
	Name    string
	colIdx  map[string]int
	names   []string
	columns [][]float64
	rows    int
}

// NewTable creates an empty table with the given column names.
func NewTable(name string, cols ...string) *Table {
	t := &Table{Name: name, colIdx: make(map[string]int, len(cols))}
	for i, c := range cols {
		t.colIdx[c] = i
		t.names = append(t.names, c)
		t.columns = append(t.columns, nil)
	}
	return t
}

// Columns returns the column names in declaration order.
func (t *Table) Columns() []string { return t.names }

// Rows returns the row count.
func (t *Table) Rows() int { return t.rows }

// Append adds one row; a typed error rejects rows whose value count does
// not match the column count (and the row is not added).
func (t *Table) Append(values ...float64) error {
	if len(values) != len(t.columns) {
		return invalid.New("db", "Append", "row width %d != %d columns", len(values), len(t.columns))
	}
	for i, v := range values {
		t.columns[i] = append(t.columns[i], v)
	}
	t.rows++
	return nil
}

// Column returns the raw column slice (shared, do not mutate), or a typed
// error for an unknown column name.
func (t *Table) Column(name string) ([]float64, error) {
	i, ok := t.colIdx[name]
	if !ok {
		return nil, invalid.New("db", "Column", "unknown column %s", name)
	}
	return t.columns[i], nil
}

// mustColumn is the internal accessor for call sites whose column names
// were already validated at the public entry point (or come from Columns()
// itself). Reaching the panic means a validation bug inside this package,
// not bad caller input.
func (t *Table) mustColumn(name string) []float64 {
	i, ok := t.colIdx[name]
	if !ok {
		panic("db: internal: column " + name + " not validated by entry point")
	}
	return t.columns[i]
}

// Pred is a range predicate on one column: Lo ≤ value ≤ Hi.
type Pred struct {
	Col    string
	Lo, Hi float64
}

// Matches reports whether row r satisfies every predicate. Predicates must
// name existing columns — the query entry points validate them before the
// per-row loops run.
func (t *Table) Matches(r int, preds []Pred) bool {
	for _, p := range preds {
		v := t.mustColumn(p.Col)[r]
		if v < p.Lo || v > p.Hi {
			return false
		}
	}
	return true
}

// Count returns the number of rows matching all predicates (a full scan —
// the exact answer estimators are judged against).
func (t *Table) Count(preds []Pred) int {
	n := 0
	for r := 0; r < t.rows; r++ {
		if t.Matches(r, preds) {
			n++
		}
	}
	return n
}

// Selectivity returns Count/Rows.
func (t *Table) Selectivity(preds []Pred) float64 {
	if t.rows == 0 {
		return 0
	}
	return float64(t.Count(preds)) / float64(t.rows)
}

// Agg is an aggregate function identifier.
type Agg int

// Aggregates supported by Aggregate.
const (
	AggCount Agg = iota
	AggSum
	AggMean
	AggMin
	AggMax
	AggStd
)

// Aggregate computes the aggregate of col over rows matching preds. The
// aggregate identifier, target column (except for AggCount), and every
// predicate column are validated up front with typed errors.
func (t *Table) Aggregate(agg Agg, col string, preds []Pred) (float64, error) {
	if err := checkAgg("Aggregate", agg); err != nil {
		return 0, err
	}
	if err := t.checkPreds("Aggregate", preds); err != nil {
		return 0, err
	}
	var vals []float64
	var c []float64
	if agg != AggCount {
		var err error
		if c, err = t.Column(col); err != nil {
			return 0, invalid.New("db", "Aggregate", "unknown column %s", col)
		}
	}
	for r := 0; r < t.rows; r++ {
		if t.Matches(r, preds) {
			if agg == AggCount {
				vals = append(vals, 1)
			} else {
				vals = append(vals, c[r])
			}
		}
	}
	if len(vals) == 0 {
		return 0, nil
	}
	switch agg {
	case AggCount:
		return float64(len(vals)), nil
	case AggSum:
		return sum(vals), nil
	case AggMean:
		return sum(vals) / float64(len(vals)), nil
	case AggMin:
		m := vals[0]
		for _, v := range vals[1:] {
			if v < m {
				m = v
			}
		}
		return m, nil
	case AggMax:
		m := vals[0]
		for _, v := range vals[1:] {
			if v > m {
				m = v
			}
		}
		return m, nil
	default: // AggStd; checkAgg rejected everything else
		mu := sum(vals) / float64(len(vals))
		var s float64
		for _, v := range vals {
			s += (v - mu) * (v - mu)
		}
		return math.Sqrt(s / float64(len(vals))), nil
	}
}

func sum(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s
}

// GroupMeans returns, for each distinct rounded value of groupCol, the mean
// of valCol over matching rows — the "view" primitive the exploration agent
// inspects. Group keys are rounded to buckets of the given width.
func (t *Table) GroupMeans(groupCol, valCol string, bucket float64) (map[float64]float64, error) {
	g, err := t.Column(groupCol)
	if err != nil {
		return nil, invalid.New("db", "GroupMeans", "unknown column %s", groupCol)
	}
	v, err := t.Column(valCol)
	if err != nil {
		return nil, invalid.New("db", "GroupMeans", "unknown column %s", valCol)
	}
	sums := map[float64]float64{}
	counts := map[float64]int{}
	for r := 0; r < t.rows; r++ {
		key := math.Floor(g[r]/bucket) * bucket
		sums[key] += v[r]
		counts[key]++
	}
	out := make(map[float64]float64, len(sums))
	for k, s := range sums {
		out[k] = s / float64(counts[k])
	}
	return out, nil
}

// ColumnQuantiles returns the q evenly-spaced quantiles of a column
// (including min and max), used to build equi-depth histograms and to
// normalise features.
func (t *Table) ColumnQuantiles(col string, q int) ([]float64, error) {
	c, err := t.Column(col)
	if err != nil {
		return nil, invalid.New("db", "ColumnQuantiles", "unknown column %s", col)
	}
	vals := append([]float64(nil), c...)
	sort.Float64s(vals)
	if len(vals) == 0 {
		return nil, nil
	}
	out := make([]float64, q+1)
	for i := 0; i <= q; i++ {
		idx := i * (len(vals) - 1) / q
		out[i] = vals[idx]
	}
	return out, nil
}
