package db

import "dlsys/internal/invalid"

// Canopy is a Data-Canopy-style statistics cache (Wasay et al., cited in
// the tutorial's data-exploration discussion): a range mean decomposes into
// per-chunk basic aggregates (count and sum). Chunks are computed on first
// touch and reused by every later query that overlaps them, so an
// exploratory session's repeated, overlapping statistics get faster as it
// proceeds.
type Canopy struct {
	table     *Table
	chunkSize int
	// univariate chunk stats, built lazily per column
	cols map[string][]chunkStats
	// accounting
	rowsScanned int64 // rows touched building chunks or scanning edges
}

type chunkStats struct {
	built      bool
	count, sum float64
}

// NewCanopy creates a cache over t with the given chunk size (rows). A
// typed error rejects a non-positive chunk size. Mean requires an existing
// column name — the table's schema is fixed at construction, so callers
// resolve names once.
func NewCanopy(t *Table, chunkSize int) (*Canopy, error) {
	if chunkSize < 1 {
		return nil, invalid.New("db", "NewCanopy", "chunk size %d < 1", chunkSize)
	}
	return &Canopy{
		table:     t,
		chunkSize: chunkSize,
		cols:      map[string][]chunkStats{},
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
	st := chunkStats{built: true}
	for r := lo; r < hi; r++ {
		st.count++
		st.sum += data[r]
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
	var agg chunkStats
	addRow := func(v float64) {
		agg.count++
		agg.sum += v
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
		agg.count += chunks[ci].count
		agg.sum += chunks[ci].sum
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
