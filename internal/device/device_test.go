package device

import (
	"math"
	"testing"
)

func TestComputeTimeScalesInversely(t *testing.T) {
	tSmall := GPUSmall.ComputeTime(1e12, 0.5)
	tLarge := GPULarge.ComputeTime(1e12, 0.5)
	if tLarge >= tSmall {
		t.Fatalf("larger GPU should be faster: %g vs %g", tLarge, tSmall)
	}
	ratio := tSmall / tLarge
	want := GPULarge.FLOPsPerSec / GPUSmall.FLOPsPerSec
	if math.Abs(ratio-want)/want > 1e-9 {
		t.Fatalf("speedup ratio %g, want %g", ratio, want)
	}
}

func TestComputeTimeBadEfficiencyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CPUServer.ComputeTime(1, 0)
}

func TestTransferTimeUsesMinBandwidthPlusLatencies(t *testing.T) {
	bytes := int64(1e9)
	got := TransferTime(GPULarge, EdgeDevice, bytes)
	want := GPULarge.LinkLatencyS + EdgeDevice.LinkLatencyS + 1e9/EdgeDevice.LinkBandwidth
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("transfer time %g, want %g", got, want)
	}
	// Zero-byte transfers still pay latency.
	if lat := TransferTime(GPUSmall, GPUSmall, 0); lat <= 0 {
		t.Fatal("latency not charged")
	}
}

func TestStepTimeRoofline(t *testing.T) {
	// Compute-bound: huge FLOPs, tiny bytes.
	cb := GPUSmall.StepTime(1e15, 1e3, 1e3, 1)
	if cb < GPUSmall.ComputeTime(1e15, 1) {
		t.Fatal("compute-bound step cannot beat pure compute time")
	}
	// Memory-bound: tiny FLOPs, huge bytes.
	mb := GPUSmall.StepTime(1e3, 1e12, 0, 1)
	if mb < GPUSmall.MemTime(1e12) {
		t.Fatal("memory-bound step cannot beat pure transfer time")
	}
}

func TestCatalogDistinctNames(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range []Profile{CPUServer, GPUSmall, GPULarge, TPULike, EdgeDevice, ClusterNode} {
		if seen[p.Name] {
			t.Fatalf("duplicate profile name %s", p.Name)
		}
		seen[p.Name] = true
		if p.FLOPsPerSec <= 0 || p.Watts <= 0 || p.MemCapacity <= 0 {
			t.Fatalf("profile %s has non-positive fields", p.Name)
		}
	}
}
