package serve

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dlsys/internal/invalid"
)

// TestConfigErrorTyped checks that every Config validation failure comes
// back as the shared *invalid.Error naming the offending field, so callers
// screen bad configs with one errors.As target across every subsystem.
func TestConfigErrorTyped(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"no replicas", func(c *Config) { c.Replicas = nil }, "Replicas"},
		{"efficiency zero", func(c *Config) { c.Replicas[0].Efficiency = 0 }, "Replicas[0].Efficiency"},
		{"efficiency above one", func(c *Config) { c.Replicas[1].Efficiency = 1.5 }, "Replicas[1].Efficiency"},
		{"zero-cost variant", func(c *Config) { c.Replicas[0].Variant.Bytes = 0 }, "Replicas[0].Variant"},
		{"unknown tier", func(c *Config) { c.Replicas[2].Variant.Tier = Tier(9) }, "Replicas[2].Variant.Tier"},
		{"arrival rate", func(c *Config) { c.ArrivalRate = 0 }, "ArrivalRate"},
		{"requests", func(c *Config) { c.Requests = -3 }, "Requests"},
		{"hedge quantile", func(c *Config) { c.HedgeQuantile = 1 }, "HedgeQuantile"},
		{"NaN hedge quantile", func(c *Config) { c.HedgeQuantile = math.NaN() }, "HedgeQuantile"},
		{"NaN efficiency", func(c *Config) { c.Replicas[1].Efficiency = math.NaN() }, "Replicas[1].Efficiency"},
		{"NaN device FLOPs", func(c *Config) { c.Replicas[0].Device.FLOPsPerSec = math.NaN() }, "Replicas[0].Device.FLOPsPerSec"},
		{"+Inf device memory bandwidth", func(c *Config) { c.Replicas[1].Device.MemBandwidth = math.Inf(1) }, "Replicas[1].Device.MemBandwidth"},
		{"NaN device link bandwidth", func(c *Config) { c.Replicas[2].Device.LinkBandwidth = math.NaN() }, "Replicas[2].Device.LinkBandwidth"},
		{"-Inf device link latency", func(c *Config) { c.Replicas[0].Device.LinkLatencyS = math.Inf(-1) }, "Replicas[0].Device.LinkLatencyS"},
		{"NaN device watts", func(c *Config) { c.Replicas[1].Device.Watts = math.NaN() }, "Replicas[1].Device.Watts"},
		{"+Inf device idle watts", func(c *Config) { c.Replicas[2].Device.IdleWatts = math.Inf(1) }, "Replicas[2].Device.IdleWatts"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(1, 0, 1, 10, true)
			cfg.Replicas = append([]Replica(nil), cfg.Replicas...)
			tc.mutate(&cfg)
			_, err := NewServer(cfg)
			if err == nil {
				t.Fatal("bad config accepted")
			}
			var ce *invalid.Error
			if !errors.As(err, &ce) {
				t.Fatalf("error %T %q is not a *invalid.Error", err, err)
			}
			if ce.Field != tc.field {
				t.Fatalf("Field = %q, want %q (reason %q)", ce.Field, tc.field, ce.Reason)
			}
			if ce.Reason == "" {
				t.Fatal("empty Reason")
			}
			if !strings.HasPrefix(ce.Error(), "serve: "+tc.field+": ") {
				t.Fatalf("Error() = %q lacks the serve: <field>: prefix", ce.Error())
			}
		})
	}
}
