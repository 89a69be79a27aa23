// Package modelstore implements a Mistique-style store for model
// intermediates (Part 3.2's "Frameworks and Systems"): layer activations
// from many model versions are quantized to 8 bits and deduplicated at
// row-chunk granularity, so diagnosing models by querying historical
// activations costs a fraction of naive float storage, with bounded
// reconstruction error.
//
// Each row is quantized independently with its own scale/zero embedded in
// the chunk payload, so identical rows produce identical chunks regardless
// of which tensor they arrived in — that is what makes deduplication work
// across model versions that share layers.
package modelstore

import (
	"encoding/binary"
	"fmt"
	"math"

	"dlsys/internal/fp"
	"dlsys/internal/tensor"
)

// Store holds quantized, deduplicated activation chunks addressed by
// (model, layer).
type Store struct {
	chunks  map[uint64][]byte // content-addressed chunk payloads
	entries map[string]*entry
	// accounting
	naiveBytes  int64
	storedBytes int64
}

type entry struct {
	shape     []int
	rows      int
	rowLen    int
	maxErr    float64
	chunkRefs []uint64 // one per row
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{chunks: map[uint64][]byte{}, entries: map[string]*entry{}}
}

func key(model, layer string) string { return model + "\x00" + layer }

const chunkHeader = 16 // scale + zero as float64 bits

// encodeRow quantizes one row to 8 bits with its own affine parameters and
// returns the self-describing payload: [scale|zero|codes...].
func encodeRow(row []float64) []byte {
	lo, hi := row[0], row[0]
	for _, v := range row[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	scale := (hi - lo) / 255
	if scale == 0 {
		scale = 1
	}
	payload := make([]byte, chunkHeader+len(row))
	binary.LittleEndian.PutUint64(payload[0:], math.Float64bits(scale))
	binary.LittleEndian.PutUint64(payload[8:], math.Float64bits(lo))
	for i, v := range row {
		c := math.Round((v - lo) / scale)
		if c < 0 {
			c = 0
		}
		if c > 255 {
			c = 255
		}
		payload[chunkHeader+i] = byte(c)
	}
	return payload
}

// decodeRow reconstructs a row into dst.
func decodeRow(payload []byte, dst []float64) {
	scale := math.Float64frombits(binary.LittleEndian.Uint64(payload[0:]))
	zero := math.Float64frombits(binary.LittleEndian.Uint64(payload[8:]))
	for i := range dst {
		dst[i] = scale*float64(payload[chunkHeader+i]) + zero
	}
}

// Put stores a [rows, features] activation tensor for (model, layer),
// quantizing each row to 8 bits and deduplicating identical rows (within
// and across entries). Re-putting the same key overwrites. Tensors that are
// not rank 2 are a caller error, reported rather than panicking: activation
// shapes depend on runtime model wiring, so the store validates its inputs.
func (s *Store) Put(model, layer string, acts *tensor.Tensor) error {
	if acts.Rank() != 2 {
		return fmt.Errorf("modelstore: activations must be rank 2, got rank %d", acts.Rank())
	}
	rows, rowLen := acts.Dim(0), acts.Dim(1)
	e := &entry{shape: acts.Shape(), rows: rows, rowLen: rowLen}
	for r := 0; r < rows; r++ {
		payload := encodeRow(acts.Row(r))
		scale := math.Float64frombits(binary.LittleEndian.Uint64(payload[0:]))
		if half := scale / 2; half > e.maxErr {
			e.maxErr = half
		}
		h := hashChunk(payload)
		if _, ok := s.chunks[h]; !ok {
			s.chunks[h] = payload
			s.storedBytes += int64(len(payload))
		}
		e.chunkRefs = append(e.chunkRefs, h)
	}
	s.storedBytes += int64(rows) * 8 // refs
	s.naiveBytes += int64(acts.Size()) * 8
	s.entries[key(model, layer)] = e
	return nil
}

func hashChunk(b []byte) uint64 {
	h := fp.New()
	h.Write(b)
	return uint64(h)
}

// Get reconstructs the stored activations for (model, layer). Each value
// differs from the original by at most half its row's quantization step.
func (s *Store) Get(model, layer string) (*tensor.Tensor, error) {
	e, ok := s.entries[key(model, layer)]
	if !ok {
		return nil, fmt.Errorf("modelstore: no entry for model %q layer %q", model, layer)
	}
	out := tensor.New(e.shape...)
	for r := 0; r < e.rows; r++ {
		decodeRow(s.chunks[e.chunkRefs[r]], out.Data[r*e.rowLen:(r+1)*e.rowLen])
	}
	return out, nil
}

// Entries returns the number of stored (model, layer) entries.
func (s *Store) Entries() int { return len(s.entries) }

// NaiveBytes is what float64 storage of everything Put would have cost.
func (s *Store) NaiveBytes() int64 { return s.naiveBytes }

// StoredBytes is the actual quantized + deduplicated footprint.
func (s *Store) StoredBytes() int64 { return s.storedBytes }

// CompressionRatio is NaiveBytes / StoredBytes.
func (s *Store) CompressionRatio() float64 {
	if s.storedBytes == 0 {
		return 0
	}
	return float64(s.naiveBytes) / float64(s.storedBytes)
}

// MaxError returns the worst-case reconstruction error for (model, layer).
func (s *Store) MaxError(model, layer string) (float64, error) {
	e, ok := s.entries[key(model, layer)]
	if !ok {
		return 0, fmt.Errorf("modelstore: no entry for model %q layer %q", model, layer)
	}
	return e.maxErr, nil
}
