// Package fp is the one FNV-1a fold behind every replay fingerprint: the
// simulation kernel's event log, the obs registry and tracer, the guard,
// robust and livedb ledgers, and the serving ledgers. A fold costs no
// allocation, and its methods inline, so the kernel can fold once per
// event.
//
// Every fold computes byte-wise FNV-1a, h ← (h ^ b)·prime64 per byte, and
// keeps the running hash in a register, storing it once per call. Two
// identities let a fold skip work without changing a bit of the result:
//
//   - A zero byte folds to a bare multiply, h·prime64, so Word folds only
//     its significant low bytes and then multiplies by prime64ᵏ for its k
//     zero high bytes.
//   - XOR with a byte changes only the low byte of h, and the low byte of
//     a product depends only on its factors' low bytes. So folding a fixed
//     string of n bytes maps h to h·prime64ⁿ + T[h&0xff] for a 256-entry
//     table T that depends on the string alone; Prefolded holds it.
package fp

import (
	"math"
	"math/bits"
)

const (
	offset64 = 14695981039346656037 // FNV-1a 64-bit offset basis
	prime64  = 1099511628211        // FNV-1a 64-bit prime
)

// zeroBytes[k] is prime64ᵏ, the fold of k zero bytes.
var zeroBytes = func() (t [9]Hash) {
	t[0] = 1
	for k := 1; k < len(t); k++ {
		t[k] = t[k-1] * prime64
	}
	return t
}()

// Hash is a running 64-bit FNV-1a fold; its value is the hash of every
// byte folded so far. Start one with New: the zero value is not the offset
// basis.
type Hash uint64

// New returns a fold at the FNV-1a offset basis, the hash of no bytes.
func New() Hash { return offset64 }

// Byte folds one byte.
func (h *Hash) Byte(b byte) { *h = (*h ^ Hash(b)) * prime64 }

// Word folds v as eight little-endian bytes: its low bytes up to the
// highest nonzero one, then the zero bytes above it as one multiply.
func (h *Hash) Word(v uint64) {
	x := *h
	k := bits.LeadingZeros64(v) >> 3 // zero high bytes
	for i := k; i < 8; i++ {
		x = (x ^ Hash(byte(v))) * prime64
		v >>= 8
	}
	*h = x * zeroBytes[k]
}

// Float folds the IEEE-754 bits of f as a Word.
func (h *Hash) Float(f float64) { h.Word(math.Float64bits(f)) }

// String folds the bytes of s.
func (h *Hash) String(s string) {
	x := *h
	for i := 0; i < len(s); i++ {
		x = (x ^ Hash(s[i])) * prime64
	}
	*h = x
}

// Write folds p, so a text fold can fmt.Fprintf into the hash. It never
// fails.
func (h *Hash) Write(p []byte) (int, error) {
	x := *h
	for _, b := range p {
		x = (x ^ Hash(b)) * prime64
	}
	*h = x
	return len(p), nil
}

// Prefolded is a string whose fold is precomputed from every starting
// hash, for a string folded many times, such as an actor's name. Build it
// with Prefold; it takes about 2 KB.
type Prefolded struct {
	mul Hash      // prime64ⁿ for the string's n bytes
	add [256]Hash // add[b]: what the fold adds beyond h·mul when h&0xff == b
}

// Prefold precomputes the fold of s.
func Prefold(s string) Prefolded {
	p := Prefolded{mul: 1}
	for i := 0; i < len(s); i++ {
		p.mul *= prime64
	}
	for b := range p.add {
		h := Hash(b)
		h.String(s)
		p.add[b] = h - Hash(b)*p.mul
	}
	return p
}

// Prefolded folds the string p was built from, with the same result as
// String and in one multiply and one load.
func (h *Hash) Prefolded(p *Prefolded) {
	x := *h
	*h = x*p.mul + p.add[byte(x)]
}
