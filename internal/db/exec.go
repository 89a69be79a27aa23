package db

import (
	"math"

	"dlsys/internal/invalid"
)

// Vectorized query execution. Part 1 of the tutorial draws an analogy
// between neural-network layers and query-processing operators, and its
// "Data Management Opportunities" calls out vectorized processing as a
// technique worth carrying across. This file implements both execution
// models over the column store — a tuple-at-a-time Volcano-style
// interpreter and a vector-at-a-time (batch) engine — so the ablation (A9)
// can measure the difference the tutorial alludes to.

// Batch is a unit of vectorized execution: a selection vector over table
// row ids plus the table it refers to.
type Batch struct {
	table *Table
	rows  []int
}

// batchSize is the vector width; 1024 amortises per-batch overhead while
// staying cache-resident.
const batchSize = 1024

// Operator is a pull-based vectorized operator: Next returns the next
// batch, or nil when exhausted.
type Operator interface {
	Next() *Batch
}

// ScanOp produces the table's rows in batches.
type ScanOp struct {
	table *Table
	pos   int
}

// NewScan creates a scan over t.
func NewScan(t *Table) *ScanOp { return &ScanOp{table: t} }

// Next implements Operator.
func (s *ScanOp) Next() *Batch {
	if s.pos >= s.table.Rows() {
		return nil
	}
	end := s.pos + batchSize
	if end > s.table.Rows() {
		end = s.table.Rows()
	}
	rows := make([]int, 0, end-s.pos)
	for r := s.pos; r < end; r++ {
		rows = append(rows, r)
	}
	s.pos = end
	return &Batch{table: s.table, rows: rows}
}

// FilterOp keeps rows satisfying all predicates, evaluated column-at-a-time
// over each batch (the vectorized inner loop: one column array, one
// predicate, tight loop, no per-tuple dispatch).
type FilterOp struct {
	input Operator
	preds []Pred
}

// NewFilter wraps input with a conjunctive predicate.
func NewFilter(input Operator, preds []Pred) *FilterOp {
	return &FilterOp{input: input, preds: preds}
}

// Next implements Operator.
func (f *FilterOp) Next() *Batch {
	for {
		b := f.input.Next()
		if b == nil {
			return nil
		}
		sel := b.rows
		for _, p := range f.preds {
			// Predicate columns are validated by the query entry points
			// before the pipeline runs (see Matches).
			col := b.table.mustColumn(p.Col)
			out := sel[:0]
			for _, r := range sel {
				v := col[r]
				if v >= p.Lo && v <= p.Hi {
					out = append(out, r)
				}
			}
			sel = out
			if len(sel) == 0 {
				break
			}
		}
		if len(sel) > 0 {
			return &Batch{table: b.table, rows: sel}
		}
		// Fully filtered batch: pull the next one.
	}
}

// AggOp fully consumes its input and computes one aggregate.
type AggOp struct {
	input Operator
	agg   Agg
	col   string
}

// NewAggregate creates the aggregation sink.
func NewAggregate(input Operator, agg Agg, col string) *AggOp {
	return &AggOp{input: input, agg: agg, col: col}
}

// Result runs the pipeline to completion. The aggregate identifier and the
// target column are validated with typed errors.
func (a *AggOp) Result() (float64, error) {
	if err := checkAgg("Result", a.agg); err != nil {
		return 0, err
	}
	var count float64
	var sum, sumsq float64
	min, max := 0.0, 0.0
	first := true
	for {
		b := a.input.Next()
		if b == nil {
			break
		}
		col, err := b.table.Column(a.col)
		if err != nil {
			return 0, invalid.New("db", "Result", "unknown column %s", a.col)
		}
		for _, r := range b.rows {
			v := col[r]
			count++
			sum += v
			sumsq += v * v
			if first || v < min {
				min = v
			}
			if first || v > max {
				max = v
			}
			first = false
		}
	}
	switch a.agg {
	case AggCount:
		return count, nil
	case AggSum:
		return sum, nil
	case AggMean:
		if count == 0 {
			return 0, nil
		}
		return sum / count, nil
	case AggMin:
		return min, nil
	case AggMax:
		return max, nil
	default: // AggStd; checkAgg rejected everything else
		if count == 0 {
			return 0, nil
		}
		mean := sum / count
		v := sumsq/count - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v), nil
	}
}

// VectorizedQuery runs SELECT agg(col) FROM t WHERE preds through the
// batch engine. The aggregate, target column, and predicate columns are
// validated up front with typed errors.
func VectorizedQuery(t *Table, agg Agg, col string, preds []Pred) (float64, error) {
	if err := checkQuery(t, "VectorizedQuery", agg, col, preds); err != nil {
		return 0, err
	}
	return NewAggregate(NewFilter(NewScan(t), preds), agg, col).Result()
}

// TupleAtATimeQuery is the Volcano-style baseline: every row flows through
// the full predicate stack individually with per-tuple column lookups —
// the per-tuple interpretation overhead vectorization removes. Arguments
// are validated once up front with typed errors; the per-row loop keeps
// the per-tuple column resolution that the vectorized engine hoists out.
func TupleAtATimeQuery(t *Table, agg Agg, col string, preds []Pred) (float64, error) {
	if err := checkQuery(t, "TupleAtATimeQuery", agg, col, preds); err != nil {
		return 0, err
	}
	var count, sum, sumsq float64
	min, max := 0.0, 0.0
	first := true
	for r := 0; r < t.Rows(); r++ {
		ok := true
		for _, p := range preds {
			// Per-tuple, per-predicate column resolution: the dispatch
			// cost the vectorized engine hoists out of the loop.
			v := t.mustColumn(p.Col)[r]
			if v < p.Lo || v > p.Hi {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		v := t.mustColumn(col)[r]
		count++
		sum += v
		sumsq += v * v
		if first || v < min {
			min = v
		}
		if first || v > max {
			max = v
		}
		first = false
	}
	switch agg {
	case AggCount:
		return count, nil
	case AggSum:
		return sum, nil
	case AggMean:
		if count == 0 {
			return 0, nil
		}
		return sum / count, nil
	case AggMin:
		return min, nil
	case AggMax:
		return max, nil
	default: // AggStd; checkQuery rejected everything else
		if count == 0 {
			return 0, nil
		}
		mean := sum / count
		v := sumsq/count - mean*mean
		if v < 0 {
			v = 0
		}
		return math.Sqrt(v), nil
	}
}
