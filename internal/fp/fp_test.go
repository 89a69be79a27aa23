package fp

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// Every method folds exactly the bytes hash/fnv's FNV-1a would see for the
// same encoding, so a fingerprint moved onto Hash keeps its value.
func TestHashMatchesStdlibFNV1a(t *testing.T) {
	ref := fnv.New64a()
	h := New()
	if uint64(h) != ref.Sum64() {
		t.Fatalf("New = %#x, want offset basis %#x", uint64(h), ref.Sum64())
	}
	var buf [8]byte
	for i, v := range []uint64{0, 1, 0xff, 1 << 63, 0x0123456789abcdef, math.MaxUint64} {
		binary.LittleEndian.PutUint64(buf[:], v)
		ref.Write(buf[:])
		h.Word(v)
		f := float64(i) - 1.5
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		ref.Write(buf[:])
		h.Float(f)
		s := fmt.Sprintf("actor-%d|é", i)
		ref.Write([]byte(s))
		h.String(s)
		ref.Write([]byte{byte(i), 0xfe})
		h.Byte(byte(i))
		h.Byte(0xfe)
		fmt.Fprintf(ref, "%d|%.17g\n", i, f)
		fmt.Fprintf(&h, "%d|%.17g\n", i, f)
		if uint64(h) != ref.Sum64() {
			t.Fatalf("step %d: fold %#x, hash/fnv %#x", i, uint64(h), ref.Sum64())
		}
	}
}

func TestHashFoldsAllocateNothing(t *testing.T) {
	h := New()
	allocs := testing.AllocsPerRun(100, func() {
		h.String("distributed")
		h.Float(1.25)
		h.Word(42)
		h.Byte(7)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per fold", allocs)
	}
}
