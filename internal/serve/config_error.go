package serve

import (
	"fmt"
	"math"
)

// ConfigError is a typed validation failure for a degenerate serving
// config field: which field, and why its value cannot run. It matches the
// distributed.ConfigError pattern so callers screen bad configs the same
// way on both sides of the stack (errors.As against *serve.ConfigError).
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("serve: config %s %s", e.Field, e.Reason)
}

// floatField names one float config value for checkFinite.
type floatField struct {
	name string
	v    float64
}

// checkFinite returns a *ConfigError naming the first NaN or ±Inf value.
// Constructors call it before defaults: NaN passes every range comparison,
// and a default would silently replace -Inf. Zero still means the default.
func checkFinite(fields []floatField) error {
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return &ConfigError{Field: f.name, Reason: fmt.Sprintf("%g is not finite", f.v)}
		}
	}
	return nil
}

// finite rejects NaN and ±Inf in every float field.
func (c Config) finite() error {
	fields := []floatField{
		{"ArrivalRate", c.ArrivalRate}, {"DeadlineS", c.DeadlineS}, {"BackoffS", c.BackoffS},
		{"RestartS", c.RestartS}, {"HedgeQuantile", c.HedgeQuantile},
		{"Breaker.FailureRate", c.Breaker.FailureRate}, {"Breaker.CooldownS", c.Breaker.CooldownS},
	}
	for i, r := range c.Replicas {
		name := fmt.Sprintf("Replicas[%d].", i)
		d := r.Device
		fields = append(fields, floatField{name + "Efficiency", r.Efficiency},
			floatField{name + "Device.FLOPsPerSec", d.FLOPsPerSec},
			floatField{name + "Device.MemBandwidth", d.MemBandwidth},
			floatField{name + "Device.LinkBandwidth", d.LinkBandwidth},
			floatField{name + "Device.LinkLatencyS", d.LinkLatencyS},
			floatField{name + "Device.Watts", d.Watts},
			floatField{name + "Device.IdleWatts", d.IdleWatts})
	}
	return checkFinite(fields)
}

// finite rejects NaN and ±Inf in every float field.
func (c FleetConfig) finite() error {
	return checkFinite([]floatField{
		{"ZipfS", c.ZipfS}, {"ArrivalRate", c.ArrivalRate}, {"ServiceS", c.ServiceS},
		{"BatchItemS", c.BatchItemS}, {"DeadlineS", c.DeadlineS}, {"BackoffS", c.BackoffS},
		{"KeySkew", c.KeySkew}, {"BucketS", c.BucketS},
		{"Budget.Ratio", c.Budget.Ratio}, {"Budget.Burst", c.Budget.Burst},
		{"Admission.TargetS", c.Admission.TargetS}, {"Admission.IntervalS", c.Admission.IntervalS},
		{"Autoscale.IntervalS", c.Autoscale.IntervalS}, {"Autoscale.LagS", c.Autoscale.LagS},
		{"Autoscale.CooldownS", c.Autoscale.CooldownS}, {"Autoscale.UpDelayS", c.Autoscale.UpDelayS},
		{"Autoscale.DownDelayS", c.Autoscale.DownDelayS}, {"Cache.TTLS", c.Cache.TTLS},
	})
}
