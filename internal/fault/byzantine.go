package fault

// Byzantine fault injection: adversarial workers that participate in every
// round on schedule but upload poisoned contributions. The attacks are all
// finite by construction — they are designed to slip past the NaN/Inf
// screens of internal/guard and must instead be defeated by the robust
// aggregators in internal/robust. Like every other class, each draw is a
// pure hash of (seed, kind, worker, round), so Byzantine scenarios replay
// bit-identically regardless of worker execution order.

// colludeCoalition is the pseudo-worker key under which the colluding
// coalition derives its shared label-flip shift: every colluder hashes the
// same key, so the coalition's poison is coordinated, not independent.
const colludeCoalition = -2

// IsByzantineKind reports whether k is one of the adversarial-worker
// attack kinds.
func IsByzantineKind(k Kind) bool {
	switch k {
	case KindSignFlip, KindScaleAttack, KindDriftAttack, KindCollude:
		return true
	}
	return false
}

// ByzantineFires reports whether the worker attacks at the given round: a
// Byzantine window active at the injector's instant lists it and its
// draw, keyed by the attack kind, fires.
func (i *Injector) ByzantineFires(worker, round int) bool {
	return i.byzantineAt(worker, round) != nil
}

// ColludesBatch reports whether the worker is a colluder attacking this
// round: under KindCollude the poison is applied to the batch labels (via
// ColludeShuffleLabels) before the gradient is computed, then amplified by
// CorruptGradient.
func (i *Injector) ColludesBatch(worker, round int) bool {
	w := i.byzantineAt(worker, round)
	return w != nil && w.Kind == KindCollude
}

// ColludeShuffleLabels rotates the one-hot rows of a flat [rows × classes]
// label matrix by a shift every coalition member derives identically (the
// draw is keyed by the round and a shared coalition key, not the worker),
// so the colluders' label-flip gradients push in a coordinated direction.
func (i *Injector) ColludeShuffleLabels(labels []float64, rows, classes, round int) {
	if i == nil || rows < 2 || len(labels) != rows*classes {
		return
	}
	coalition := int64(colludeCoalition)
	h := splitmix64(uint64(i.cfg.Seed)) ^ splitmix64(uint64(KindCollude)<<32^uint64(coalition))
	h = splitmix64(h ^ uint64(int64(round))<<16)
	shift := 1 + int(h%uint64(rows-1))
	rotated := make([]float64, len(labels))
	for r := 0; r < rows; r++ {
		src := ((r + shift) % rows) * classes
		copy(rotated[r*classes:(r+1)*classes], labels[src:src+classes])
	}
	copy(labels, rotated)
}

// CorruptGradient applies the worker's Byzantine attack to its uploaded
// gradient (or parameter) vector in place, reporting whether an attack was
// applied this round. Honest workers and non-attacking rounds are
// untouched. The attack and its magnitude f come from the window that
// fired (see Window), and every attack keeps the vector finite:
//
//   - KindSignFlip: g ← −f·g (amplified ascent direction, default f 100)
//   - KindScaleAttack: g ← f·g (default f 100)
//   - KindDriftAttack: g ← g + b, where b is a constant hash-signed bias
//     vector of per-coordinate magnitude f (default 1.5), identical every
//     round (the stealthy consistent-drift attack)
//   - KindCollude: g ← f·g (default f 50), amplifying the label-flip
//     gradient the coalition produced via ColludeShuffleLabels
func (i *Injector) CorruptGradient(g []float64, worker, round int) bool {
	if i == nil || len(g) == 0 {
		return false
	}
	w := i.byzantineAt(worker, round)
	if w == nil {
		return false
	}
	f := w.Factor
	switch w.Kind {
	case KindSignFlip:
		if f <= 0 {
			f = 100
		}
		f = -f
	case KindScaleAttack:
		if f <= 0 {
			f = 100
		}
	case KindCollude:
		if f <= 0 {
			f = 50
		}
	case KindDriftAttack:
		if f <= 0 {
			f = 1.5
		}
		// The bias direction depends only on (seed, coordinate): the same
		// drift is applied every round, which is what makes it effective.
		h0 := splitmix64(uint64(i.cfg.Seed)) ^ splitmix64(uint64(KindDriftAttack)<<32)
		for j := range g {
			if splitmix64(h0^uint64(j))&1 == 0 {
				g[j] += f
			} else {
				g[j] -= f
			}
		}
		return true
	}
	for j := range g {
		g[j] *= f
	}
	return true
}
