// Package device models heterogeneous hardware with analytic cost models.
// The tutorial's techniques are evaluated on GPUs/TPUs/edge devices we do
// not have; this package substitutes device profiles (FLOP throughput,
// memory bandwidth and capacity, interconnect bandwidth and latency, power
// draw) so that compute/communication/memory tradeoffs produce the same
// crossovers the real hardware would, in simulated seconds.
package device

import "fmt"

// Profile describes one simulated device.
type Profile struct {
	Name          string
	FLOPsPerSec   float64 // peak arithmetic throughput
	MemBandwidth  float64 // bytes/sec to device memory
	MemCapacity   int64   // bytes of device memory
	LinkBandwidth float64 // bytes/sec to peer devices / host
	LinkLatencyS  float64 // per-message latency in seconds
	Watts         float64 // power draw under load
	IdleWatts     float64 // power draw when idle
}

// Catalog of representative device profiles. Numbers are order-of-magnitude
// public figures, not measurements; experiments only rely on their ratios.
var (
	// CPUServer approximates a 32-core server CPU.
	CPUServer = Profile{
		Name: "cpu-server", FLOPsPerSec: 2e12, MemBandwidth: 100e9,
		MemCapacity: 256 << 30, LinkBandwidth: 12e9, LinkLatencyS: 5e-6,
		Watts: 250, IdleWatts: 80,
	}
	// GPUSmall approximates a mid-range training accelerator.
	GPUSmall = Profile{
		Name: "gpu-small", FLOPsPerSec: 30e12, MemBandwidth: 600e9,
		MemCapacity: 16 << 30, LinkBandwidth: 16e9, LinkLatencyS: 8e-6,
		Watts: 200, IdleWatts: 40,
	}
	// GPULarge approximates a flagship training accelerator.
	GPULarge = Profile{
		Name: "gpu-large", FLOPsPerSec: 150e12, MemBandwidth: 2e12,
		MemCapacity: 80 << 30, LinkBandwidth: 50e9, LinkLatencyS: 5e-6,
		Watts: 400, IdleWatts: 60,
	}
	// TPULike approximates a systolic-array accelerator.
	TPULike = Profile{
		Name: "tpu-like", FLOPsPerSec: 250e12, MemBandwidth: 1.2e12,
		MemCapacity: 32 << 30, LinkBandwidth: 100e9, LinkLatencyS: 2e-6,
		Watts: 280, IdleWatts: 50,
	}
	// EdgeDevice approximates a phone-class inference chip.
	EdgeDevice = Profile{
		Name: "edge", FLOPsPerSec: 1e12, MemBandwidth: 30e9,
		MemCapacity: 4 << 30, LinkBandwidth: 100e6, LinkLatencyS: 1e-3,
		Watts: 5, IdleWatts: 0.5,
	}
	// ClusterNode approximates one node of a commodity training cluster:
	// accelerator-class compute behind a datacenter Ethernet NIC, so
	// inter-node links are bandwidth-bound for realistic gradient payloads.
	// This is the profile the collective-topology experiments scale on —
	// its bandwidth/latency ratio puts the ring/mesh crossover at the
	// payload sizes real data-parallel training ships.
	ClusterNode = Profile{
		Name: "cluster-node", FLOPsPerSec: 40e12, MemBandwidth: 800e9,
		MemCapacity: 64 << 30, LinkBandwidth: 2.5e9, LinkLatencyS: 1e-5,
		Watts: 350, IdleWatts: 60,
	}
)

// ComputeTime returns the seconds needed to execute the given FLOPs at an
// assumed fraction of peak (efficiency in (0, 1]).
func (p Profile) ComputeTime(flops int64, efficiency float64) float64 {
	if efficiency <= 0 || efficiency > 1 {
		panic(fmt.Sprintf("device: efficiency %g out of (0,1]", efficiency))
	}
	return float64(flops) / (p.FLOPsPerSec * efficiency)
}

// MemTime returns the seconds to move bytes through device memory.
func (p Profile) MemTime(bytes int64) float64 {
	return float64(bytes) / p.MemBandwidth
}

// SendTime returns the seconds for one message of the given size over the
// profile's own link: per-message latency plus serialization. It is the
// per-attempt cost the distributed trainer's retrying transport pays.
func (p Profile) SendTime(bytes int64) float64 {
	return p.LinkLatencyS + float64(bytes)/p.LinkBandwidth
}

// ServeTime returns the seconds for one inference request executed locally
// on the device: the model's weights stream through device memory once (the
// weight-bound small-batch serving regime) plus the arithmetic at the given
// efficiency. This is the per-request cost model the serving simulator
// charges each replica — compressed variants are faster precisely because
// fewer bytes stream per request.
func (p Profile) ServeTime(modelBytes, flops int64, efficiency float64) float64 {
	return p.MemTime(modelBytes) + p.ComputeTime(flops, efficiency)
}

// TransferTime returns the seconds to send bytes over the device's
// interconnect, including per-message latency. Bandwidth is the minimum of
// the two endpoints' link bandwidths.
func TransferTime(from, to Profile, bytes int64) float64 {
	bw := from.LinkBandwidth
	if to.LinkBandwidth < bw {
		bw = to.LinkBandwidth
	}
	return from.LinkLatencyS + to.LinkLatencyS + float64(bytes)/bw
}

// StepTime estimates one training-step time for a model on this device:
// compute-bound term plus a memory-traffic term for reading parameters and
// writing activations. It is the simulator primitive used by the
// parallelization planner.
func (p Profile) StepTime(flops, paramBytes, activationBytes int64, efficiency float64) float64 {
	compute := p.ComputeTime(flops, efficiency)
	traffic := p.MemTime(paramBytes + activationBytes)
	// Compute and memory traffic overlap imperfectly; take max plus 10% of
	// the smaller term, a standard roofline-style approximation.
	if compute > traffic {
		return compute + 0.1*traffic
	}
	return traffic + 0.1*compute
}
