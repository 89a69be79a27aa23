package fault

import "math"

// Numerical fault injection: faults in the training computation itself
// (poisoned batches, shuffled labels, spiked learning rates) rather than the
// communication layer. Every draw is keyed by (seed, kind, worker, step,
// attempt) exactly like the communication faults, so numerical fault
// scenarios replay bit-identically and are order-independent across
// concurrent workers.

// CorruptsBatch reports whether the worker's input batch at the given step
// is poisoned.
func (i *Injector) CorruptsBatch(worker, step int) bool {
	return i.ChanceAt(KindBatchCorrupt, worker, step, 0, i.now())
}

// CorruptBatchValues deterministically poisons a batch in place and returns
// how many values were overwritten. Poison values cycle through NaN, +Inf,
// -Inf, and 1e12 — the last stays finite, so detectors must catch magnitude
// explosions too, not just non-finite scans. Roughly 2% of the batch is
// poisoned, with at least one value guaranteed so an injected fault is never
// a silent no-op.
func (i *Injector) CorruptBatchValues(data []float64, worker, step int) int {
	if i == nil || len(data) == 0 {
		return 0
	}
	poisons := [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e12}
	n := len(data) / 50
	if n < 1 {
		n = 1
	}
	h := splitmix64(uint64(i.cfg.Seed)) ^ splitmix64(uint64(KindBatchCorrupt)<<32|uint64(int64(worker)))
	h = splitmix64(h ^ uint64(int64(step))<<16)
	for j := 0; j < n; j++ {
		h = splitmix64(h)
		idx := int(h % uint64(len(data)))
		data[idx] = poisons[j%len(poisons)]
	}
	return n
}

// LabelNoise reports whether the worker's labels at the given step arrive
// shuffled.
func (i *Injector) LabelNoise(worker, step int) bool {
	return i.ChanceAt(KindLabelNoise, worker, step, 0, i.now())
}

// ShuffleLabels deterministically rotates the one-hot rows of a flat
// [rows × classes] label matrix by a hash-derived offset in [1, rows), so
// every example's label is wrong but the matrix stays a valid one-hot
// encoding (the poison is semantic, not numerical).
func (i *Injector) ShuffleLabels(labels []float64, rows, classes, worker, step int) {
	if i == nil || rows < 2 || len(labels) != rows*classes {
		return
	}
	h := splitmix64(uint64(i.cfg.Seed)) ^ splitmix64(uint64(KindLabelNoise)<<32|uint64(int64(worker)))
	h = splitmix64(h ^ uint64(int64(step))<<16)
	shift := 1 + int(h%uint64(rows-1))
	rotated := make([]float64, len(labels))
	for r := 0; r < rows; r++ {
		src := ((r + shift) % rows) * classes
		copy(rotated[r*classes:(r+1)*classes], labels[src:src+classes])
	}
	copy(labels, rotated)
}

// LRSpikeFactor returns the learning-rate multiplier for the worker's step:
// 1 normally, the lr-spike windows' factor (default 64) when the fault
// fires.
func (i *Injector) LRSpikeFactor(worker, step int) float64 {
	return i.scaled(KindLRSpike, worker, worker, step, 64)
}
