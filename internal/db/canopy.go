package db

import (
	"math"

	"dlsys/internal/invalid"
)

// Canopy is a Data-Canopy-style statistics cache (Wasay et al., cited in
// the tutorial's data-exploration discussion): descriptive statistics over
// row ranges decompose into per-chunk basic aggregates (count, sum, sum of
// squares, min, max, and pairwise sum-of-products). Chunks are computed on
// first touch and reused by every later query that overlaps them, so an
// exploratory session's repeated, overlapping statistics get faster as it
// proceeds.
type Canopy struct {
	table     *Table
	chunkSize int
	// univariate chunk stats, built lazily per column
	cols map[string][]chunkStats
	// pairwise sum-of-products chunks, built lazily per (colA, colB)
	pairs map[[2]string][]pairStats
	// accounting
	rowsScanned int64 // rows touched building chunks or scanning edges
}

type chunkStats struct {
	built      bool
	count      float64
	sum, sumSq float64
	min, max   float64
}

type pairStats struct {
	built   bool
	sumProd float64
}

// NewCanopy creates a cache over t with the given chunk size (rows). A
// typed error rejects a non-positive chunk size. The statistics methods
// (Mean, Std, Min, Max, Correlation) require existing column names — the
// table's schema is fixed at construction, so callers resolve names once.
func NewCanopy(t *Table, chunkSize int) (*Canopy, error) {
	if chunkSize < 1 {
		return nil, invalid.New("db", "NewCanopy", "chunk size %d < 1", chunkSize)
	}
	return &Canopy{
		table:     t,
		chunkSize: chunkSize,
		cols:      map[string][]chunkStats{},
		pairs:     map[[2]string][]pairStats{},
	}, nil
}

// RowsScanned reports the total rows touched since creation — the work
// metric the cache exists to reduce.
func (c *Canopy) RowsScanned() int64 { return c.rowsScanned }

func (c *Canopy) numChunks() int {
	return (c.table.Rows() + c.chunkSize - 1) / c.chunkSize
}

func (c *Canopy) colChunks(col string) []chunkStats {
	if ch, ok := c.cols[col]; ok {
		return ch
	}
	ch := make([]chunkStats, c.numChunks())
	c.cols[col] = ch
	return ch
}

// buildChunk materialises one chunk's stats for a column.
func (c *Canopy) buildChunk(col string, chunks []chunkStats, ci int) {
	data := c.table.mustColumn(col)
	lo := ci * c.chunkSize
	hi := lo + c.chunkSize
	if hi > len(data) {
		hi = len(data)
	}
	st := chunkStats{built: true, min: math.Inf(1), max: math.Inf(-1)}
	for r := lo; r < hi; r++ {
		v := data[r]
		st.count++
		st.sum += v
		st.sumSq += v * v
		if v < st.min {
			st.min = v
		}
		if v > st.max {
			st.max = v
		}
	}
	c.rowsScanned += int64(hi - lo)
	chunks[ci] = st
}

// rangeStats aggregates [lo, hi) (row indices) for a column, combining
// cached chunks in the interior and scanning the ragged edges directly.
func (c *Canopy) rangeStats(col string, lo, hi int) chunkStats {
	data := c.table.mustColumn(col)
	if lo < 0 {
		lo = 0
	}
	if hi > len(data) {
		hi = len(data)
	}
	agg := chunkStats{min: math.Inf(1), max: math.Inf(-1)}
	addRow := func(v float64) {
		agg.count++
		agg.sum += v
		agg.sumSq += v * v
		if v < agg.min {
			agg.min = v
		}
		if v > agg.max {
			agg.max = v
		}
	}
	chunks := c.colChunks(col)
	firstFull := (lo + c.chunkSize - 1) / c.chunkSize
	lastFull := hi / c.chunkSize // exclusive chunk index bound
	if firstFull >= lastFull {
		// Range inside one or two chunks: direct scan.
		for r := lo; r < hi; r++ {
			addRow(data[r])
		}
		c.rowsScanned += int64(hi - lo)
		return agg
	}
	// Leading edge.
	for r := lo; r < firstFull*c.chunkSize; r++ {
		addRow(data[r])
	}
	c.rowsScanned += int64(firstFull*c.chunkSize - lo)
	// Cached interior.
	for ci := firstFull; ci < lastFull; ci++ {
		if !chunks[ci].built {
			c.buildChunk(col, chunks, ci)
		}
		st := chunks[ci]
		agg.count += st.count
		agg.sum += st.sum
		agg.sumSq += st.sumSq
		if st.min < agg.min {
			agg.min = st.min
		}
		if st.max > agg.max {
			agg.max = st.max
		}
	}
	// Trailing edge.
	for r := lastFull * c.chunkSize; r < hi; r++ {
		addRow(data[r])
	}
	c.rowsScanned += int64(hi - lastFull*c.chunkSize)
	return agg
}

// Mean returns the mean of col over rows [lo, hi).
func (c *Canopy) Mean(col string, lo, hi int) float64 {
	st := c.rangeStats(col, lo, hi)
	if st.count == 0 {
		return 0
	}
	return st.sum / st.count
}

// Std returns the population standard deviation of col over [lo, hi).
func (c *Canopy) Std(col string, lo, hi int) float64 {
	st := c.rangeStats(col, lo, hi)
	if st.count == 0 {
		return 0
	}
	mean := st.sum / st.count
	v := st.sumSq/st.count - mean*mean
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the minimum of col over [lo, hi).
func (c *Canopy) Min(col string, lo, hi int) float64 {
	return c.rangeStats(col, lo, hi).min
}

// Max returns the maximum of col over [lo, hi).
func (c *Canopy) Max(col string, lo, hi int) float64 {
	return c.rangeStats(col, lo, hi).max
}

// Correlation returns the Pearson correlation of two columns over [lo, hi),
// using cached sum-of-product chunks for the interior.
func (c *Canopy) Correlation(colA, colB string, lo, hi int) float64 {
	a := c.rangeStats(colA, lo, hi)
	b := c.rangeStats(colB, lo, hi)
	sp := c.rangeSumProd(colA, colB, lo, hi)
	n := a.count
	if n == 0 {
		return 0
	}
	cov := sp/n - (a.sum/n)*(b.sum/n)
	sdA := math.Sqrt(a.sumSq/n - (a.sum/n)*(a.sum/n))
	sdB := math.Sqrt(b.sumSq/n - (b.sum/n)*(b.sum/n))
	if sdA == 0 || sdB == 0 {
		return 0
	}
	return cov / (sdA * sdB)
}

func (c *Canopy) rangeSumProd(colA, colB string, lo, hi int) float64 {
	if colB < colA {
		colA, colB = colB, colA
	}
	key := [2]string{colA, colB}
	chunks, ok := c.pairs[key]
	if !ok {
		chunks = make([]pairStats, c.numChunks())
		c.pairs[key] = chunks
	}
	da, db := c.table.mustColumn(colA), c.table.mustColumn(colB)
	if hi > len(da) {
		hi = len(da)
	}
	var sp float64
	firstFull := (lo + c.chunkSize - 1) / c.chunkSize
	lastFull := hi / c.chunkSize
	if firstFull >= lastFull {
		for r := lo; r < hi; r++ {
			sp += da[r] * db[r]
		}
		c.rowsScanned += int64(hi - lo)
		return sp
	}
	for r := lo; r < firstFull*c.chunkSize; r++ {
		sp += da[r] * db[r]
	}
	for ci := firstFull; ci < lastFull; ci++ {
		if !chunks[ci].built {
			cl := ci * c.chunkSize
			ch := cl + c.chunkSize
			if ch > len(da) {
				ch = len(da)
			}
			var s float64
			for r := cl; r < ch; r++ {
				s += da[r] * db[r]
			}
			chunks[ci] = pairStats{built: true, sumProd: s}
			c.rowsScanned += int64(ch - cl)
		}
		sp += chunks[ci].sumProd
	}
	for r := lastFull * c.chunkSize; r < hi; r++ {
		sp += da[r] * db[r]
	}
	c.rowsScanned += int64(firstFull*c.chunkSize - lo + hi - lastFull*c.chunkSize)
	return sp
}

// NaiveMean scans the range directly (the no-cache baseline), charging the
// same work metric. The column must exist.
func NaiveMean(t *Table, col string, lo, hi int, rowsScanned *int64) float64 {
	data := t.mustColumn(col)
	if hi > len(data) {
		hi = len(data)
	}
	var sum, n float64
	for r := lo; r < hi; r++ {
		sum += data[r]
		n++
	}
	*rowsScanned += int64(hi - lo)
	if n == 0 {
		return 0
	}
	return sum / n
}
