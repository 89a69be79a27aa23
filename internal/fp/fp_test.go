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
	p := Prefold("fleet-srv")
	allocs := testing.AllocsPerRun(100, func() {
		h.String("distributed")
		h.Prefolded(&p)
		h.Float(1.25)
		h.Word(42)
		h.Byte(7)
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per fold", allocs)
	}
}

// The ops FuzzFoldsMatchFNV1a decodes: a tag byte, a length byte, then
// that many operand bytes (an opByte folds its length byte).
const (
	opWord      = iota // length%9 bytes: the word's low bytes
	opFloat            // 8 bytes: the float's bits
	opString           // length%32 bytes
	opPrefolded        // length%32 bytes, folded through Prefold
	opWrite            // length%32 bytes
	opByte
	numOps
)

// Every fold, in any order, must equal hash/fnv's FNV-1a over the same
// bytes: a Word of each significant-byte count, and a prefolded string
// folded from each of the 256 low bytes a running hash can have.
func FuzzFoldsMatchFNV1a(f *testing.F) {
	for n := 0; n <= 8; n++ {
		// A word with n significant bytes, 1.0 (six zero low bytes), and a
		// word cut short by the end of the input.
		seed := binary.LittleEndian.AppendUint64([]byte{opWord, 8}, 0x8877665544332211>>(64-8*n))
		seed = binary.LittleEndian.AppendUint64(append(seed, opFloat, 8), math.Float64bits(1))
		f.Add(append(seed, opWord, byte(n)))
	}
	// From the offset basis, one folded byte b reaches every low byte:
	// XOR with b and multiplying by the odd prime both permute it.
	for _, name := range []string{"", "a", "livedb-maint"} {
		for b := 0; b < 256; b++ {
			op := []byte{opByte, byte(b), opPrefolded, byte(len(name))}
			f.Add(append(append(op, name...), opWord, 3, 1, 2, 3))
		}
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		ref := fnv.New64a()
		h := New()
		take := func(k int) []byte {
			b := ops[:min(k, len(ops))]
			ops = ops[len(b):]
			return b
		}
		for len(ops) > 0 {
			tag, n := ops[0]%numOps, 0
			if len(ops) > 1 {
				n = int(ops[1])
			}
			ops = ops[min(2, len(ops)):]
			var buf [8]byte
			switch tag {
			case opWord:
				copy(buf[:], take(n%9))
				h.Word(binary.LittleEndian.Uint64(buf[:]))
				ref.Write(buf[:])
			case opFloat:
				copy(buf[:], take(8))
				h.Float(math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
				ref.Write(buf[:])
			case opString:
				s := take(n % 32)
				h.String(string(s))
				ref.Write(s)
			case opPrefolded:
				s := take(n % 32)
				p := Prefold(string(s))
				h.Prefolded(&p)
				ref.Write(s)
			case opWrite:
				s := take(n % 32)
				h.Write(s)
				ref.Write(s)
			case opByte:
				h.Byte(byte(n))
				ref.Write([]byte{byte(n)})
			}
			if uint64(h) != ref.Sum64() {
				t.Fatalf("op %d: fold %#x, hash/fnv %#x", tag, uint64(h), ref.Sum64())
			}
		}
	})
}
