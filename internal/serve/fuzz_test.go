package serve

import (
	"math"
	"testing"

	"dlsys/internal/fault"
	"dlsys/internal/obs"
)

// fuzzRates, fuzzDurations and fuzzScales are the values a fuzz byte picks
// for a float field of the matching kind: zero (the default), ordinary
// values, negatives, NaN and ±Inf. Their ranges bound a run's cost the way
// the 200-request cap does: the autoscaler ticks every IntervalS (here at
// least 1e-3 s) for the whole simulated span, which the smallest rate and
// the largest backoff set.
var (
	fuzzRates     = []float64{0, 100, 2000, 20000, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	fuzzDurations = []float64{0, 1e-3, 0.01, 0.1, 1, -1, math.NaN(), math.Inf(1), math.Inf(-1)}
	fuzzScales    = []float64{0, 0.1, 0.5, 1, 1.5, 3, 8, 64, -2, math.NaN(), math.Inf(1), math.Inf(-1)}
)

// decodeFleetConfig turns fuzz bytes into a small fleet run: up to 200
// requests, 1–8 tenants and replicas, every float field drawn from the
// tables above, the four control-plane switches, and up to three fault
// windows of any kind, the invalid ones included. Missing bytes read as
// zero.
func decodeFleetConfig(in []byte) FleetConfig {
	at := func(i int) byte {
		if i < len(in) {
			return in[i]
		}
		return 0
	}
	pick := func(table []float64, i int) float64 { return table[int(at(i))%len(table)] }
	flags := at(3)
	c := FleetConfig{
		Seed:        int64(at(4)),
		Requests:    int(at(0)) % 201,
		Tenants:     1 + int(at(1))%8,
		Replicas:    1 + int(at(2))%8,
		ArrivalRate: pick(fuzzRates, 5),
		ZipfS:       pick(fuzzScales, 6),
		ServiceS:    pick(fuzzDurations, 7),
		BatchMax:    int(at(8)) % 6,
		BatchItemS:  pick(fuzzDurations, 9),
		DeadlineS:   pick(fuzzDurations, 10),
		MaxAttempts: int(at(11)) % 18,
		BackoffS:    pick(fuzzDurations, 12),
		Keys:        int(at(13)) % 64,
		KeySkew:     pick(fuzzScales, 14),
		BucketS:     pick(fuzzDurations, 15),
		Budget: RetryBudgetConfig{Disabled: flags&1 != 0,
			Ratio: pick(fuzzScales, 16), Burst: pick(fuzzScales, 17)},
		Admission: AdmissionConfig{Adaptive: flags&2 != 0, QueueCap: int(at(18)) % 32,
			TargetS: pick(fuzzDurations, 19), IntervalS: pick(fuzzDurations, 20)},
		Autoscale: AutoscaleConfig{Disabled: flags&4 != 0, MaxReplicas: int(at(21)) % 20,
			IntervalS: pick(fuzzDurations, 22), LagS: pick(fuzzDurations, 23),
			CooldownS: pick(fuzzDurations, 24), UpDelayS: pick(fuzzDurations, 25),
			DownDelayS: pick(fuzzDurations, 26)},
		Cache: CacheConfig{Disabled: flags&8 != 0, Capacity: int(at(27)) % 16,
			TTLS: pick(fuzzDurations, 28)},
	}
	c.Faults.Seed = int64(at(29))
	for i := 30; i+5 < len(in) && len(c.Faults.Schedule) < 3; i += 6 {
		w := fault.Window{
			Kind:   fault.Kind(int(in[i]) % 25),
			StartS: pick(fuzzDurations, i+1),
			EndS:   pick(fuzzDurations, i+2),
			Prob:   pick(fuzzScales, i+3),
			Factor: pick(fuzzScales, i+4),
		}
		if t := int(in[i+5]) % 10; t < 8 {
			w.Workers = []int{t}
		}
		c.Faults.Schedule = append(c.Faults.Schedule, w)
	}
	return c
}

// FuzzFleetConfig holds every config NewFleet accepts to its promise: Run
// returns without a panic, and the obs counters reconcile with the
// request ledger exactly.
func FuzzFleetConfig(f *testing.F) {
	// Bytes 0–28 are requests, tenants, replicas, switches, seed, then the
	// float, size and cap fields in decode order; byte 29 is the fault
	// seed, and each window after it is six bytes: kind, start, end, prob,
	// factor, worker.
	pad := func(head []byte, windows ...byte) []byte {
		b := make([]byte, 30, 30+len(windows))
		copy(b, head)
		return append(b, windows...)
	}
	f.Add(pad([]byte{200, 7, 3, 0, 1, 2, 2, 1, 3}))                               // budgets, autoscaler and cache on
	f.Add(pad([]byte{120, 3, 1, 13, 2, 3, 0, 2, 1, 0, 1, 16, 3}))                 // every control off, 16 attempts
	f.Add(pad([]byte{150, 8, 2, 2, 3, 3, 1, 1, 4, 1, 2, 4, 2}, 6, 2, 0, 0, 5, 0)) // flash crowd on tenant 0
	f.Add(pad([]byte{150, 4, 2, 1, 4, 2}, 17, 0, 0, 0, 5, 9, 18, 2, 4, 0, 4, 1))  // retry storm and brownout
	f.Add(pad([]byte{50, 2, 2, 0, 5, 6, 9, 7, 0, 8, 6}))                          // NaN and ±Inf fields: rejected
	f.Add(pad([]byte{50, 2, 2, 0, 6, 1, 0, 0, 0, 0, 0, 17}))                      // 17 attempts: rejected
	f.Add(pad([]byte{50, 2, 2, 0, 7, 1}, 1, 0, 0, 3, 5, 9))                       // factor on a crash window: rejected
	f.Fuzz(func(t *testing.T, in []byte) {
		cfg := decodeFleetConfig(in)
		h := obs.NewHandle()
		cfg.Obs = h
		fl, err := NewFleet(cfg)
		if err != nil {
			return
		}
		res := fl.Run()
		if err := res.Reconcile(h); err != nil {
			t.Fatalf("config %+v: %v", cfg, err)
		}
	})
}
