package db

import (
	"math"
	"math/rand"
	"testing"
)

func canopyTable(rng *rand.Rand, n int) *Table {
	t := NewTable("t", "x", "y")
	for i := 0; i < n; i++ {
		x := rng.NormFloat64()
		t.Append(x, 0.8*x+0.2*rng.NormFloat64())
	}
	return t
}

func naiveMean(t *Table, col string, lo, hi int) float64 {
	data := must(t.Column(col))
	if hi > len(data) {
		hi = len(data)
	}
	var sum float64
	for r := lo; r < hi; r++ {
		sum += data[r]
	}
	return sum / float64(hi-lo)
}

func TestCanopyMatchesNaiveStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := canopyTable(rng, 10000)
	c := must(NewCanopy(tab, 128))
	for trial := 0; trial < 50; trial++ {
		lo := rng.Intn(9000)
		hi := lo + 1 + rng.Intn(1000)
		if got, want := c.Mean("x", lo, hi), naiveMean(tab, "x", lo, hi); math.Abs(got-want) > 1e-9 {
			t.Fatalf("mean[%d,%d) = %g, want %g", lo, hi, got, want)
		}
	}
}

func TestCanopyRangeEdges(t *testing.T) {
	tab := NewTable("t", "x")
	for i := 0; i < 10; i++ {
		tab.Append(float64(i))
	}
	c := must(NewCanopy(tab, 4))
	// Range inside a single chunk.
	if got := c.Mean("x", 1, 3); got != 1.5 {
		t.Fatalf("single-chunk mean %g", got)
	}
	// Range spanning edges and full chunks.
	if got := c.Mean("x", 1, 9); got != 4.5 {
		t.Fatalf("spanning mean %g", got)
	}
	// Full table.
	if got := c.Mean("x", 0, 10); got != 4.5 {
		t.Fatalf("full mean %g", got)
	}
	// Out-of-range is clamped.
	if got := c.Mean("x", 0, 999); got != 4.5 {
		t.Fatalf("clamped mean %g", got)
	}
}

func TestCanopyReusesWorkAcrossSession(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 50000
	tab := canopyTable(rng, n)
	c := must(NewCanopy(tab, 512))
	var naiveScanned int64

	// An exploratory session: 60 overlapping range queries.
	queries := make([][2]int, 60)
	for q := range queries {
		lo := rng.Intn(n / 2)
		queries[q] = [2]int{lo, lo + n/3}
	}
	for _, q := range queries {
		want := NaiveMean(tab, "x", q[0], q[1], &naiveScanned)
		got := c.Mean("x", q[0], q[1])
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("answer mismatch on [%d,%d)", q[0], q[1])
		}
	}
	t.Logf("rows scanned: canopy %d vs naive %d (%.1fx less)",
		c.RowsScanned(), naiveScanned, float64(naiveScanned)/float64(c.RowsScanned()))
	if c.RowsScanned() >= naiveScanned/4 {
		t.Fatalf("canopy scanned %d rows, naive %d: expected >=4x saving", c.RowsScanned(), naiveScanned)
	}
}
