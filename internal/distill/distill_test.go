package distill

import (
	"math"
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
	Distill(rand.New(rand.NewSource(8)), teacher, student, train.X, nn.OneHot(train.Labels, 4), Config{
		Alpha: 0.3, T: 3, Epochs: 40, BatchSize: 32, LR: 0.01,
	})
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

func TestDistillEnsembleCompressesCommittee(t *testing.T) {
	train, test := hardDataset(3)
	var teachers []*nn.Network
	for k := 0; k < 3; k++ {
		rng := rand.New(rand.NewSource(int64(200 + k)))
		teacher := nn.NewMLP(rng, nn.MLPConfig{In: 8, Hidden: []int{32}, Out: 4})
		tr := nn.NewTrainer(teacher, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
		tr.Fit(train.X, nn.OneHot(train.Labels, 4), nn.TrainConfig{Epochs: 25, BatchSize: 32})
		teachers = append(teachers, teacher)
	}
	student := nn.NewMLP(rand.New(rand.NewSource(20)), nn.MLPConfig{In: 8, Hidden: []int{16}, Out: 4})
	DistillEnsemble(rand.New(rand.NewSource(21)), teachers, student, train.X, nn.OneHot(train.Labels, 4), Config{
		Alpha: 0.3, T: 3, Epochs: 40, BatchSize: 32, LR: 0.01,
	})
	if sacc := student.Accuracy(test.X, test.Labels); sacc < 0.6 {
		t.Fatalf("ensemble-distilled student accuracy %.3f", sacc)
	}
}

func TestHintTrainingReducesHintLoss(t *testing.T) {
	train, _ := hardDataset(4)
	teacher := trainTeacher(t, train)
	student := nn.NewMLP(rand.New(rand.NewSource(30)), nn.MLPConfig{In: 8, Hidden: []int{8, 8}, Out: 4})
	// Teacher layer 1 output = first ReLU (width 64); student layer 1 = first ReLU (width 8).
	cfg := HintConfig{TeacherLayer: 1, StudentLayer: 1, Epochs: 1, BatchSize: 32, LR: 0.01}
	first := HintTrain(rand.New(rand.NewSource(31)), teacher, student, train.X, cfg)
	cfg.Epochs = 15
	final := HintTrain(rand.New(rand.NewSource(32)), teacher, student, train.X, cfg)
	if final >= first {
		t.Fatalf("hint loss did not decrease: %g -> %g", first, final)
	}
}

func TestAgreementBounds(t *testing.T) {
	train, _ := hardDataset(5)
	teacher := trainTeacher(t, train)
	if ag := Agreement(teacher, teacher, train.X); ag != 1 {
		t.Fatalf("self agreement %g != 1", ag)
	}
}

// DistillEnsemble trains through Distill's loop: it tallies examples and
// FLOPs as Distill does for the same student, and with one teacher it
// trains that student bit for bit as Distill does.
func TestDistillEnsembleTrainsThroughDistillsLoop(t *testing.T) {
	train, _ := hardDataset(6)
	y := nn.OneHot(train.Labels, 4)
	newNet := func(seed int64, hidden int) *nn.Network {
		return nn.NewMLP(rand.New(rand.NewSource(seed)), nn.MLPConfig{In: 8, Hidden: []int{hidden}, Out: 4})
	}
	teachers := []*nn.Network{newNet(40, 16), newNet(41, 16)}
	// 720 examples in batches of 50 end each epoch on a short batch.
	cfg := Config{Alpha: 0.3, T: 3, Epochs: 3, BatchSize: 50, LR: 0.01}

	single := newNet(42, 8)
	want := Distill(rand.New(rand.NewSource(43)), teachers[0], single, train.X, y, cfg)
	got := DistillEnsemble(rand.New(rand.NewSource(43)), teachers, newNet(42, 8), train.X, y, cfg)
	if n := int64(train.X.Dim(0)); got.Examples != int64(cfg.Epochs)*n {
		t.Errorf("Examples = %d, want Epochs·n = %d", got.Examples, int64(cfg.Epochs)*n)
	}
	if got.FLOPs == 0 || got.FLOPs != want.FLOPs || got.Steps != want.Steps {
		t.Errorf("FLOPs %d over %d steps, Distill's %d over %d", got.FLOPs, got.Steps, want.FLOPs, want.Steps)
	}

	one := newNet(42, 8)
	DistillEnsemble(rand.New(rand.NewSource(43)), teachers[:1], one, train.X, y, cfg)
	wp, gp := single.ParamVector(), one.ParamVector()
	for i := range wp {
		if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			t.Fatalf("parameter %d: one-teacher DistillEnsemble %g, Distill %g", i, gp[i], wp[i])
		}
	}
}
