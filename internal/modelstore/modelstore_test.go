package modelstore

import (
	"math"
	"math/rand"
	"testing"

	"dlsys/internal/tensor"
)

// mustPut unwraps Put's error for the rank-2 tensors these tests store.
func mustPut(t *testing.T, s *Store, model, layer string, acts *tensor.Tensor) {
	t.Helper()
	if err := s.Put(model, layer, acts); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTripWithinQuantError(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewStore()
	acts := tensor.RandNormal(rng, 0, 1, 64, 32)
	mustPut(t, s, "m1", "relu0", acts)
	got, err := s.Get("m1", "relu0")
	if err != nil {
		t.Fatal(err)
	}
	bound, _ := s.MaxError("m1", "relu0")
	for i := range acts.Data {
		if math.Abs(acts.Data[i]-got.Data[i]) > bound+1e-12 {
			t.Fatalf("element %d error %g exceeds bound %g", i,
				math.Abs(acts.Data[i]-got.Data[i]), bound)
		}
	}
}

func TestGetMissingEntryErrors(t *testing.T) {
	s := NewStore()
	if _, err := s.Get("nope", "layer"); err == nil {
		t.Fatal("expected error for missing entry")
	}
}

func TestQuantizationAloneGivesLargeSavings(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := NewStore()
	mustPut(t, s, "m", "l", tensor.RandNormal(rng, 0, 1, 256, 64))
	if s.CompressionRatio() < 5 {
		t.Fatalf("compression ratio %.2f < 5 without dedup", s.CompressionRatio())
	}
}

func TestDedupAcrossModelVersions(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewStore()
	acts := tensor.RandNormal(rng, 0, 1, 128, 32)
	mustPut(t, s, "v1", "relu0", acts)
	afterFirst := s.StoredBytes()
	// Version 2's early-layer activations are identical (frozen layers) —
	// the dedup case Mistique exploits.
	mustPut(t, s, "v2", "relu0", acts.Clone())
	afterSecond := s.StoredBytes()
	extra := afterSecond - afterFirst
	// Only row references should be added, no new payload bytes.
	if extra > int64(acts.Dim(0))*8 {
		t.Fatalf("dedup failed: second put added %d bytes", extra)
	}
	if s.Entries() != 2 {
		t.Fatalf("entries %d", s.Entries())
	}
	// Both entries independently readable.
	a, _ := s.Get("v1", "relu0")
	b, _ := s.Get("v2", "relu0")
	if !tensor.Equal(a, b, 0) {
		t.Fatal("versions disagree after dedup")
	}
}

func TestPartialOverlapDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := NewStore()
	acts := tensor.RandNormal(rng, 0, 1, 100, 16)
	mustPut(t, s, "v1", "l", acts)
	base := s.StoredBytes()
	// v2 shares the first 50 rows exactly; the rest differ.
	acts2 := acts.Clone()
	for i := 50 * 16; i < acts2.Size(); i++ {
		acts2.Data[i] += rng.NormFloat64()
	}
	mustPut(t, s, "v2", "l", acts2)
	extra := s.StoredBytes() - base
	fullCost := int64(100*(16+16)) + 100*8 // chunks (header+codes) + refs
	if extra >= fullCost {
		t.Fatalf("partial dedup saved nothing: extra %d vs full %d", extra, fullCost)
	}
}

func TestOverwriteSameKey(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewStore()
	a := tensor.RandNormal(rng, 0, 1, 8, 4)
	b := tensor.RandNormal(rng, 5, 1, 8, 4)
	mustPut(t, s, "m", "l", a)
	mustPut(t, s, "m", "l", b)
	got, _ := s.Get("m", "l")
	bound, _ := s.MaxError("m", "l")
	for i := range b.Data {
		if math.Abs(b.Data[i]-got.Data[i]) > bound+1e-12 {
			t.Fatal("overwrite did not take effect")
		}
	}
}

func TestPutRejectsNonMatrixActivations(t *testing.T) {
	s := NewStore()
	if err := s.Put("m", "l", tensor.New(8)); err == nil {
		t.Fatal("rank-1 tensor accepted")
	}
	if err := s.Put("m", "l", tensor.New(2, 3, 4)); err == nil {
		t.Fatal("rank-3 tensor accepted")
	}
	if s.Entries() != 0 {
		t.Fatalf("rejected puts must not create entries, have %d", s.Entries())
	}
}
