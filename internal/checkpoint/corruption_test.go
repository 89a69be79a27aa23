package checkpoint

import (
	"errors"
	"math/rand"
	"testing"

	"dlsys/internal/fault"
	"dlsys/internal/nn"
)

// Storage-corruption injection: bits flip in snapshots at rest (using the
// deterministic fault injector's payload corruption, not a hand-picked
// byte), and the store must skip every CRC-invalid entry and restore the
// newest snapshot that still verifies.
func TestStoreSkipsInjectorCorruptedSnapshots(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 99, Schedule: []fault.Window{{Kind: fault.KindCorrupt, Prob: 1}}})
	net := nn.NewMLP(rand.New(rand.NewSource(11)), snapArch)
	st := NewStore(4)

	// Four training rounds, each with distinct parameters.
	var vectors [][]float64
	for round := 0; round < 4; round++ {
		params := net.ParamVector()
		for i := range params {
			params[i] += float64(round)
		}
		net.SetParamVector(params)
		vectors = append(vectors, params)
		st.Put(TakeSnapshot(round, net))
	}

	// The two newest snapshots rot on disk: one injected bit flip each.
	for _, idx := range []int{2, 3} {
		snap := st.at(idx)
		inj.CorruptPayload(snap.Payload, 0, snap.Step, 0)
		if snap.Verify() {
			t.Fatalf("CRC missed the injected flip in snapshot %d", snap.Step)
		}
	}

	target := nn.NewMLP(rand.New(rand.NewSource(12)), snapArch)
	got, skipped, err := st.Restore(target)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if skipped != 2 {
		t.Fatalf("skipped %d corrupt snapshots, want 2", skipped)
	}
	if got.Step != 1 {
		t.Fatalf("restored step %d, want newest valid (1)", got.Step)
	}
	restored := target.ParamVector()
	for i, v := range vectors[1] {
		if restored[i] != v {
			t.Fatalf("param %d is %g, want bit-identical %g from round 1", i, restored[i], v)
		}
	}
}

// When every retained snapshot is corrupted, Restore must fail loudly with
// ErrCorrupt and leave the target untouched.
func TestStoreAllCorruptFailsLoudly(t *testing.T) {
	inj := fault.NewInjector(fault.Config{Seed: 100, Schedule: []fault.Window{{Kind: fault.KindCorrupt, Prob: 1}}})
	net := nn.NewMLP(rand.New(rand.NewSource(13)), snapArch)
	st := NewStore(3)
	for round := 0; round < 3; round++ {
		st.Put(TakeSnapshot(round, net))
		inj.CorruptPayload(st.at(round).Payload, 0, round, 0)
	}
	target := nn.NewMLP(rand.New(rand.NewSource(14)), snapArch)
	before := target.ParamVector()
	_, skipped, err := st.Restore(target)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if skipped != 3 {
		t.Fatalf("skipped %d, want 3", skipped)
	}
	after := target.ParamVector()
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("failed restore must not touch the network")
		}
	}
}
