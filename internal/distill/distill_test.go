package distill

import (
	"math/rand"
	"testing"

	"dlsys/internal/data"
	"dlsys/internal/nn"
)

// hardDataset returns a dataset difficult enough that a tiny student
// benefits from the teacher's dark knowledge.
func hardDataset(seed int64) (train, test *data.Dataset) {
	rng := rand.New(rand.NewSource(seed))
	ds := data.GaussianMixture(rng, 900, 8, 4, 2.2)
	return ds.Split(rng, 0.8)
}

func trainTeacher(t *testing.T, train *data.Dataset) *nn.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(100))
	teacher := nn.NewMLP(rng, nn.MLPConfig{In: 8, Hidden: []int{64, 64}, Out: 4})
	tr := nn.NewTrainer(teacher, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
	tr.Fit(train.X, nn.OneHot(train.Labels, 4), nn.TrainConfig{Epochs: 40, BatchSize: 32})
	return teacher
}

func TestDistillationTransfersKnowledge(t *testing.T) {
	train, test := hardDataset(1)
	teacher := trainTeacher(t, train)
	tacc := teacher.Accuracy(test.X, test.Labels)

	student := nn.NewMLP(rand.New(rand.NewSource(7)), nn.MLPConfig{In: 8, Hidden: []int{8}, Out: 4})
	cfg := Config{Alpha: 0.3, T: 3, Epochs: 40, BatchSize: 32, LR: 0.01}
	stats := Distill(rand.New(rand.NewSource(8)), teacher, student, train.X, nn.OneHot(train.Labels, 4), cfg)
	// 720 examples in batches of 32 end each epoch on a short batch.
	n := train.X.Dim(0)
	if stats.Examples != int64(cfg.Epochs*n) || stats.Steps != cfg.Epochs*((n+31)/32) || stats.FLOPs <= 0 {
		t.Errorf("stats: %d examples over %d steps and %d FLOPs, want %d over %d and FLOPs > 0",
			stats.Examples, stats.Steps, stats.FLOPs, cfg.Epochs*n, cfg.Epochs*((n+31)/32))
	}
	sacc := student.Accuracy(test.X, test.Labels)
	if sacc < tacc-0.15 {
		t.Fatalf("student %.3f too far below teacher %.3f", sacc, tacc)
	}
	if sacc < 0.6 {
		t.Fatalf("student accuracy %.3f too low", sacc)
	}
}

func TestDistilledStudentBeatsScratchStudentOnAgreement(t *testing.T) {
	train, test := hardDataset(2)
	teacher := trainTeacher(t, train)

	cfg := nn.MLPConfig{In: 8, Hidden: []int{8}, Out: 4}
	distilled := nn.NewMLP(rand.New(rand.NewSource(10)), cfg)
	Distill(rand.New(rand.NewSource(11)), teacher, distilled, train.X, nn.OneHot(train.Labels, 4), Config{
		Alpha: 0.2, T: 3, Epochs: 40, BatchSize: 32, LR: 0.01,
	})

	scratch := nn.NewMLP(rand.New(rand.NewSource(10)), cfg) // same init as distilled
	str := nn.NewTrainer(scratch, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rand.New(rand.NewSource(12)))
	str.Fit(train.X, nn.OneHot(train.Labels, 4), nn.TrainConfig{Epochs: 40, BatchSize: 32})

	// The distilled student should mimic the teacher's function more
	// closely than an independently trained student of the same size.
	agDistilled := Agreement(teacher, distilled, test.X)
	agScratch := Agreement(teacher, scratch, test.X)
	if agDistilled <= agScratch {
		t.Fatalf("distilled agreement %.3f should beat scratch %.3f", agDistilled, agScratch)
	}
}

func TestAgreementBounds(t *testing.T) {
	train, _ := hardDataset(5)
	teacher := trainTeacher(t, train)
	if ag := Agreement(teacher, teacher, train.X); ag != 1 {
		t.Fatalf("self agreement %g != 1", ag)
	}
}
