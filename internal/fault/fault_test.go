package fault

import (
	"errors"
	"math"
	"sync"
	"testing"
)

func TestSameSeedSameSchedule(t *testing.T) {
	a := NewInjector(Rate(7, 0.2)).Schedule(8, 200)
	b := NewInjector(Rate(7, 0.2)).Schedule(8, 200)
	if len(a) == 0 {
		t.Fatal("rate 0.2 over 8x200 worker-rounds produced no events")
	}
	if len(a) != len(b) {
		t.Fatalf("schedules differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedsDifferentSchedules(t *testing.T) {
	a := NewInjector(Rate(1, 0.2)).Schedule(8, 200)
	b := NewInjector(Rate(2, 0.2)).Schedule(8, 200)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

// Queries must not depend on order or on other queries having been made —
// the property that lets the injector be shared by concurrent components.
func TestOrderIndependence(t *testing.T) {
	inj := NewInjector(Rate(42, 0.3))
	// Record a reference answer set.
	type key struct{ w, r, a int }
	ref := map[key]bool{}
	for w := 0; w < 4; w++ {
		for r := 0; r < 50; r++ {
			for a := 0; a < 3; a++ {
				ref[key{w, r, a}] = inj.Drops(w, r, a)
			}
		}
	}
	// Re-query in reverse order, interleaved with unrelated queries.
	for w := 3; w >= 0; w-- {
		for r := 49; r >= 0; r-- {
			inj.Crashes(w, r) // unrelated stream
			for a := 2; a >= 0; a-- {
				if inj.Drops(w, r, a) != ref[key{w, r, a}] {
					t.Fatalf("Drops(%d,%d,%d) changed across query orders", w, r, a)
				}
			}
		}
	}
}

func TestConcurrentQueriesAreStable(t *testing.T) {
	inj := NewInjector(Rate(9, 0.25))
	want := inj.Schedule(4, 100)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := inj.Schedule(4, 100)
			if len(got) != len(want) {
				t.Errorf("concurrent schedule length %d != %d", len(got), len(want))
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("concurrent schedule diverges at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRatesApproximatelyHonoured(t *testing.T) {
	inj := NewInjector(Config{Seed: 3, DropProb: 0.2})
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if inj.Drops(i%7, i, 0) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.17 || frac > 0.23 {
		t.Fatalf("drop rate %.3f far from configured 0.2", frac)
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	inj := NewInjector(Config{Seed: 5})
	for r := 0; r < 100; r++ {
		for w := 0; w < 4; w++ {
			if inj.Crashes(w, r) || inj.Drops(w, r, 0) || inj.Corrupts(w, r, 0) {
				t.Fatal("zero config injected a fault")
			}
			if inj.StraggleFactor(w, r) != 1 {
				t.Fatal("zero config produced a straggler")
			}
		}
	}
	if inj.cfg.Enabled() {
		t.Fatal("zero config reports Enabled")
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var inj *Injector
	if inj.Crashes(0, 0) || inj.Drops(0, 0, 0) || inj.Corrupts(0, 0, 0) {
		t.Fatal("nil injector injected a fault")
	}
	if inj.StraggleFactor(0, 0) != 1 {
		t.Fatal("nil injector straggled")
	}
	if inj.RestartDelay() != 3 {
		t.Fatal("nil injector restart delay")
	}
	if len(inj.Schedule(4, 10)) != 0 {
		t.Fatal("nil injector scheduled events")
	}
}

func TestCorruptPayloadFlipsExactlyOneBit(t *testing.T) {
	inj := NewInjector(Rate(11, 0.5))
	payload := make([]byte, 64)
	orig := append([]byte(nil), payload...)
	inj.CorruptPayload(payload, 1, 2, 0)
	diff := 0
	for i := range payload {
		b := payload[i] ^ orig[i]
		for ; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
}

func TestValidate(t *testing.T) {
	if err := (Config{Seed: 1, DropProb: 0.5}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{Seed: 1, DropProb: 1.5}).Validate(); err == nil {
		t.Fatal("DropProb 1.5 accepted")
	}
	if err := (Config{Seed: 1, CrashProb: -0.1}).Validate(); err == nil {
		t.Fatal("negative CrashProb accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name  string
		cfg   Config
		field string
	}{
		{"NaN CrashProb", Config{CrashProb: nan}, "CrashProb"},
		{"NaN DropProb", Config{DropProb: nan}, "DropProb"},
		{"NaN ByzantineRate", Config{ByzantineRate: nan}, "ByzantineRate"},
		{"NaN PartitionProb", Config{PartitionProb: nan}, "PartitionProb"},
		{"-Inf LRSpikeProb", Config{LRSpikeProb: -inf}, "LRSpikeProb"},
		{"NaN StragglerFactor", Config{StragglerProb: 0.5, StragglerFactor: nan}, "StragglerFactor"},
		{"+Inf StragglerFactor", Config{StragglerFactor: inf}, "StragglerFactor"},
		{"-Inf StragglerFactor", Config{StragglerFactor: -inf}, "StragglerFactor"},
		{"NaN LRSpikeFactor", Config{LRSpikeProb: 0.5, LRSpikeFactor: nan}, "LRSpikeFactor"},
		{"+Inf LRSpikeFactor", Config{LRSpikeFactor: inf}, "LRSpikeFactor"},
		{"NaN LinkSlowFactor", Config{LinkSlowFactor: nan}, "LinkSlowFactor"},
		{"+Inf ScaleAttackFactor", Config{ScaleAttackFactor: inf}, "ScaleAttackFactor"},
		{"NaN ColludeBoost", Config{ColludeBoost: nan}, "ColludeBoost"},
	} {
		var ce *ConfigError
		if err := tc.cfg.Validate(); !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: got %v, want a *ConfigError on %s", tc.name, err, tc.field)
		}
	}
}

func TestWorkerSeedsDistinctAndStable(t *testing.T) {
	seen := map[int64]int{}
	for w := 0; w < 64; w++ {
		s := WorkerSeed(99, w)
		if s < 0 {
			t.Fatalf("worker %d seed negative", w)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("workers %d and %d share seed %d", prev, w, s)
		}
		seen[s] = w
		if s != WorkerSeed(99, w) {
			t.Fatalf("worker %d seed unstable", w)
		}
	}
}
