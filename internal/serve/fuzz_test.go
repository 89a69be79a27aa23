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
		ServiceS:    pick(fuzzDurations, 6),
		DeadlineS:   pick(fuzzDurations, 7),
		BackoffS:    pick(fuzzDurations, 8),
		BucketS:     pick(fuzzDurations, 9),
		Budget:      RetryBudgetConfig{Disabled: flags&1 != 0},
		Admission:   AdmissionConfig{Adaptive: flags&2 != 0},
		Autoscale: AutoscaleConfig{Disabled: flags&4 != 0, MaxReplicas: int(at(10)) % 20,
			IntervalS: pick(fuzzDurations, 11), LagS: pick(fuzzDurations, 12),
			CooldownS: pick(fuzzDurations, 13)},
		Cache: CacheConfig{Disabled: flags&8 != 0},
	}
	c.Faults.Seed = int64(at(14))
	for i := 15; i+5 < len(in) && len(c.Faults.Schedule) < 3; i += 6 {
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
	// Bytes 0–13 are requests, tenants, replicas, switches, seed, then the
	// float and cap fields in decode order; byte 14 is the fault seed, and
	// each window after it is six bytes: kind, start, end, prob, factor,
	// worker.
	pad := func(head []byte, windows ...byte) []byte {
		b := make([]byte, 15, 15+len(windows))
		copy(b, head)
		return append(b, windows...)
	}
	f.Add(pad([]byte{200, 7, 3, 0, 1, 2, 1}))                                    // budgets, autoscaler and cache on
	f.Add(pad([]byte{120, 3, 1, 13, 2, 3, 2, 1, 3}))                             // every control off, every attempt past its deadline
	f.Add(pad([]byte{150, 8, 2, 2, 3, 3, 1, 2, 2}, 6, 2, 0, 0, 5, 0))            // flash crowd on tenant 0
	f.Add(pad([]byte{150, 4, 2, 1, 4, 2}, 17, 0, 0, 0, 5, 9, 18, 2, 4, 0, 4, 1)) // retry storm and brownout
	f.Add(pad([]byte{50, 2, 2, 0, 5, 6, 7, 6, 8}))                               // NaN and ±Inf fields: rejected
	f.Add(pad([]byte{50, 2, 7, 0, 6, 1, 0, 0, 0, 0, 3}))                         // scaler cap below 8 replicas: rejected
	f.Add(pad([]byte{50, 2, 2, 0, 7, 1}, 1, 0, 0, 3, 5, 9))                      // factor on a crash window: rejected
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
