// Package fp is the one FNV-1a fold behind every replay fingerprint: the
// simulation kernel's event log, the obs registry and tracer, the guard,
// robust and livedb ledgers, and the serving ledgers. A fold costs no
// allocation, and its methods inline, so the kernel can fold once per
// event.
package fp

import "math"

const (
	offset64 = 14695981039346656037 // FNV-1a 64-bit offset basis
	prime64  = 1099511628211        // FNV-1a 64-bit prime
)

// Hash is a running 64-bit FNV-1a fold; its value is the hash of every
// byte folded so far. Start one with New: the zero value is not the offset
// basis.
type Hash uint64

// New returns a fold at the FNV-1a offset basis, the hash of no bytes.
func New() Hash { return offset64 }

// Byte folds one byte.
func (h *Hash) Byte(b byte) { *h = (*h ^ Hash(b)) * prime64 }

// Word folds v as eight little-endian bytes.
func (h *Hash) Word(v uint64) {
	for i := 0; i < 8; i++ {
		h.Byte(byte(v))
		v >>= 8
	}
}

// Float folds the IEEE-754 bits of f as a Word.
func (h *Hash) Float(f float64) { h.Word(math.Float64bits(f)) }

// String folds the bytes of s.
func (h *Hash) String(s string) {
	for i := 0; i < len(s); i++ {
		h.Byte(s[i])
	}
}

// Write folds p, so a text fold can fmt.Fprintf into the hash. It never
// fails.
func (h *Hash) Write(p []byte) (int, error) {
	for _, b := range p {
		h.Byte(b)
	}
	return len(p), nil
}
