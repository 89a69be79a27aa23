package fault

import (
	"math"
	"sync"
	"testing"
)

// The injector's contract is that outcomes depend only on the query tuple
// (seed, kind, worker, step, attempt) — never on query order or
// concurrency. Here many goroutines draw the same tuples concurrently
// (exercised under -race in CI) and every draw must agree byte-for-byte
// with a serial reference pass.
func TestInjectorConcurrentDeterminism(t *testing.T) {
	cfg := NumericalRate(42, 0.3)
	cfg.Schedule = append(cfg.Schedule, Window{Kind: KindCrash, Prob: 0.1}, Window{Kind: KindDrop, Prob: 0.2})
	inj := NewInjector(cfg)

	const workers, steps = 8, 50
	type draws struct {
		crash, batch, label []bool
		lr                  []float64
		payload             []uint64 // Float64bits of corrupted batch values
	}
	reference := func() draws {
		var d draws
		for w := 0; w < workers; w++ {
			for s := 0; s < steps; s++ {
				d.crash = append(d.crash, inj.Crashes(w, s))
				d.batch = append(d.batch, inj.CorruptsBatch(w, s))
				d.label = append(d.label, inj.LabelNoise(w, s))
				d.lr = append(d.lr, inj.LRSpikeFactor(w, s))
				buf := make([]float64, 32)
				inj.CorruptBatchValues(buf, w, s)
				for _, v := range buf {
					d.payload = append(d.payload, math.Float64bits(v))
				}
			}
		}
		return d
	}
	want := reference()

	// Each goroutine replays every tuple in its own order and compares
	// against the serial reference.
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			pi := 0
			for w := 0; w < workers; w++ {
				for s := 0; s < steps; s++ {
					if inj.Crashes(w, s) != want.crash[i] ||
						inj.CorruptsBatch(w, s) != want.batch[i] ||
						inj.LabelNoise(w, s) != want.label[i] {
						errs <- "boolean draw disagrees with serial reference"
						return
					}
					if math.Float64bits(inj.LRSpikeFactor(w, s)) != math.Float64bits(want.lr[i]) {
						errs <- "LR spike factor disagrees"
						return
					}
					buf := make([]float64, 32)
					inj.CorruptBatchValues(buf, w, s)
					for _, v := range buf {
						if math.Float64bits(v) != want.payload[pi] {
							errs <- "corrupted payload bytes disagree"
							return
						}
						pi++
					}
					i++
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}

	// Sanity: the scenario actually fires faults.
	fired := 0
	for _, b := range want.batch {
		if b {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("scenario injected no batch corruption at rate 0.3")
	}
}

func TestNumericalConfigValidateAndEnabled(t *testing.T) {
	c := NumericalRate(1, 0.1)
	if len(c.Schedule) != 3 {
		t.Fatalf("numerical config should hold three windows, got %+v", c.Schedule)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Schedule[0].Prob = 1.5
	if err := c.Validate(); err == nil {
		t.Fatal("out-of-range batch-corrupt probability accepted")
	}
	for _, k := range []Kind{KindBatchCorrupt, KindLabelNoise, KindLRSpike} {
		if k.String() == "unknown" {
			t.Fatalf("kind %d unnamed", k)
		}
	}
}

func TestCorruptBatchValuesGuaranteesPoison(t *testing.T) {
	inj := NewInjector(Config{Seed: 5, Schedule: []Window{{Kind: KindBatchCorrupt, Prob: 1}}})
	buf := make([]float64, 7) // small batch: len/50 == 0, must still poison ≥1
	n := inj.CorruptBatchValues(buf, 0, 0)
	if n < 1 {
		t.Fatalf("poisoned %d values, want ≥1", n)
	}
	bad := 0
	for _, v := range buf {
		if v != v || math.IsInf(v, 0) || math.Abs(v) >= 1e12 {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("no poison values present after corruption")
	}
	var nilInj *Injector
	if nilInj.CorruptBatchValues(buf, 0, 0) != 0 || nilInj.CorruptsBatch(0, 0) ||
		nilInj.LabelNoise(0, 0) || nilInj.LRSpikeFactor(0, 0) != 1 {
		t.Fatal("nil injector must be inert")
	}
}

func TestShuffleLabelsStaysOneHot(t *testing.T) {
	inj := NewInjector(Config{Seed: 9, Schedule: []Window{{Kind: KindLabelNoise, Prob: 1}}})
	const rows, classes = 6, 3
	labels := make([]float64, rows*classes)
	for r := 0; r < rows; r++ {
		labels[r*classes+r%classes] = 1
	}
	orig := append([]float64(nil), labels...)
	inj.ShuffleLabels(labels, rows, classes, 0, 0)
	changed := false
	for r := 0; r < rows; r++ {
		ones := 0
		for c := 0; c < classes; c++ {
			v := labels[r*classes+c]
			if v != 0 && v != 1 {
				t.Fatalf("row %d not one-hot after shuffle", r)
			}
			if v == 1 {
				ones++
			}
			if v != orig[r*classes+c] {
				changed = true
			}
		}
		if ones != 1 {
			t.Fatalf("row %d has %d ones", r, ones)
		}
	}
	if !changed {
		t.Fatal("shuffle changed nothing")
	}
}
