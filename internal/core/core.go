// Package core ties dlsys together: it encodes the tutorial's tradeoff
// framework (which metrics each technique improves and which it sacrifices)
// and hosts the experiment registry — one runnable experiment per claimed
// tradeoff or comparison in the paper, each regenerating a results table.
// Because the tutorial contains no numbered tables or figures, these
// experiments ARE the reproduction targets; EXPERIMENTS.md records their
// expected and measured shapes.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// Metric names the axes of the tutorial's tradeoff space (Part 1's
// quality-related and resource-related metrics, extended by Part 3's
// responsibility metrics).
type Metric string

// The metrics dlsys tracks.
const (
	Accuracy      Metric = "accuracy"
	TrainingTime  Metric = "training-time"
	InferenceTime Metric = "inference-time"
	Memory        Metric = "memory"
	Communication Metric = "communication"
	OptimizeTime  Metric = "optimization-time"
	Energy        Metric = "energy"
	Fairness      Metric = "fairness"
	Transparency  Metric = "transparency"
	Reliability   Metric = "reliability"
)

// Technique classifies one implemented method by the tradeoff it strikes —
// the organising framework of Part 1 of the tutorial, extended to Parts 2
// and 3.
type Technique struct {
	Name     string
	Package  string // implementing dlsys package
	Improves []Metric
	Costs    []Metric
	Section  string // tutorial section that surveys it
}

// Techniques returns the classification of every technique implemented in
// dlsys, mirroring the tutorial's framework.
func Techniques() []Technique {
	return []Technique{
		{"linear quantization", "quant", []Metric{Memory, InferenceTime}, []Metric{Accuracy}, "2.1"},
		{"k-means codebook quantization", "quant", []Metric{Memory}, []Metric{Accuracy, OptimizeTime}, "2.1"},
		{"huffman coding", "quant", []Metric{Memory}, nil, "2.1"},
		{"integer-only inference", "quant", []Metric{InferenceTime, Memory}, []Metric{Accuracy}, "2.1"},
		{"magnitude pruning", "prune", []Metric{Memory, InferenceTime}, []Metric{Accuracy, TrainingTime}, "2.1"},
		{"saliency pruning", "prune", []Metric{Memory, InferenceTime}, []Metric{Accuracy, TrainingTime}, "2.1"},
		{"knowledge distillation", "distill", []Metric{Memory, InferenceTime}, []Metric{TrainingTime}, "2.1"},
		{"snapshot ensembles", "ensemble", []Metric{TrainingTime}, []Metric{Accuracy}, "2.1"},
		{"fast geometric ensembles", "ensemble", []Metric{TrainingTime}, []Metric{Accuracy}, "2.1"},
		{"treenets", "ensemble", []Metric{TrainingTime, Memory, InferenceTime}, []Metric{Accuracy}, "2.1"},
		{"mothernets", "ensemble", []Metric{TrainingTime, Memory}, []Metric{Accuracy}, "2.1"},
		{"local sgd", "distributed", []Metric{Communication}, []Metric{Accuracy}, "2.1"},
		{"gradient sparsification", "distributed", []Metric{Communication}, []Metric{Accuracy}, "2.1"},
		{"gradient quantization", "distributed", []Metric{Communication}, []Metric{Accuracy}, "2.1"},
		{"priority propagation", "distributed", []Metric{TrainingTime}, nil, "2.1"},
		{"retry with exponential backoff", "distributed", []Metric{Reliability}, []Metric{Communication, TrainingTime}, "2.1"},
		{"backup workers (drop-slowest-k)", "distributed", []Metric{TrainingTime, Reliability}, []Metric{Accuracy}, "2.1"},
		{"deterministic fault injection", "fault", []Metric{Reliability, Transparency}, nil, "2.1"},
		{"numerical-fault guards (NaN/spike/explosion detection)", "guard", []Metric{Reliability}, []Metric{TrainingTime}, "2.3"},
		{"input schema and drift validation", "guard", []Metric{Reliability, Transparency}, []Metric{TrainingTime}, "2.3"},
		{"checkpoint rollback with optimizer reset", "guard", []Metric{Reliability}, []Metric{Memory, TrainingTime}, "2.3"},
		{"replayable incident ledger", "guard", []Metric{Transparency, Reliability}, nil, "2.3"},
		{"model-state checkpointing", "checkpoint", []Metric{Reliability}, []Metric{Memory, TrainingTime}, "2.3"},
		{"graceful pipeline degradation", "pipeline", []Metric{Reliability}, []Metric{Accuracy, Memory}, "3"},
		{"deadline-aware load shedding", "serve", []Metric{Reliability, InferenceTime}, nil, "2.1"},
		{"request retry with hedging", "serve", []Metric{Reliability, InferenceTime}, []Metric{Communication}, "2.1"},
		{"per-replica circuit breakers", "serve", []Metric{Reliability}, nil, "2.1"},
		{"tiered model fallback", "serve", []Metric{Reliability, InferenceTime}, []Metric{Accuracy}, "2.1"},
		{"flexflow-style search", "planner", []Metric{TrainingTime}, []Metric{OptimizeTime}, "2.2"},
		{"morphnet resizing", "planner", []Metric{InferenceTime, Memory}, []Metric{OptimizeTime}, "2.2"},
		{"activation checkpointing", "checkpoint", []Metric{Memory}, []Metric{TrainingTime}, "2.3"},
		{"activation offloading", "checkpoint", []Metric{Memory}, []Metric{TrainingTime}, "2.3"},
		{"learned index", "learned", []Metric{Memory, InferenceTime}, []Metric{OptimizeTime}, "3"},
		{"learned bloom filter", "learned", []Metric{Memory}, []Metric{OptimizeTime}, "3"},
		{"neural selectivity estimation", "learned", []Metric{Accuracy}, []Metric{OptimizeTime, Memory}, "3"},
		{"rl knob tuning", "learned", []Metric{OptimizeTime}, nil, "3"},
		{"learned join cost model", "learned", []Metric{OptimizeTime}, []Metric{Accuracy}, "3"},
		{"rl-guided exploration", "explore", []Metric{OptimizeTime}, nil, "3"},
		{"deep embeddings for similarity", "explore", []Metric{Accuracy}, []Metric{TrainingTime}, "3"},
		{"autoencoder compression", "explore", []Metric{Memory}, []Metric{TrainingTime, Accuracy}, "3"},
		{"reweighing", "fairness", []Metric{Fairness}, []Metric{Accuracy}, "4.1"},
		{"adversarial debiasing", "fairness", []Metric{Fairness}, []Metric{Accuracy, TrainingTime}, "4.1"},
		{"neuron ablation debiasing", "fairness", []Metric{Fairness}, []Metric{Accuracy}, "4.1"},
		{"threshold post-processing", "fairness", []Metric{Fairness}, nil, "4.1"},
		{"pca / t-sne", "interpret", []Metric{Transparency}, []Metric{OptimizeTime}, "4.2"},
		{"lime", "interpret", []Metric{Transparency}, []Metric{InferenceTime}, "4.2"},
		{"surrogate models", "interpret", []Metric{Transparency}, []Metric{Accuracy}, "4.2"},
		{"gradient saliency", "interpret", []Metric{Transparency}, nil, "4.2"},
		{"intermediates store", "modelstore", []Metric{Memory, Transparency}, nil, "4.2"},
		{"carbon accounting", "green", []Metric{Energy}, nil, "4.3"},
		{"carbon-aware scheduling", "green", []Metric{Energy}, nil, "4.3"},
	}
}

// Scale selects experiment problem sizes: Quick keeps each experiment in
// the low seconds for tests and benches; Full is the CLI default.
type Scale int

// Experiment scales.
const (
	Quick Scale = iota
	Full
)

// Table is one regenerated result table.
type Table struct {
	ID      string
	Title   string
	Claim   string // the tutorial statement the experiment checks
	Columns []string
	Rows    [][]string
	// Shape records whether the qualitative expectation held when the
	// table was generated (set by the experiment itself).
	Shape string
}

// AddRow appends a formatted row; values format with %v, floats with %.4g.
func (t *Table) AddRow(vals ...any) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render pretty-prints the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, v := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], v)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	if t.Shape != "" {
		fmt.Fprintf(&b, "shape: %s\n", t.Shape)
	}
	return b.String()
}

// Experiment is one registered reproduction target.
type Experiment struct {
	ID      string
	Title   string
	Claim   string
	Section string
	Run     func(scale Scale) *Table
}

var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs panic at init time.
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("core: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment: the claim reproductions E1..E32 in numeric
// order, then the ablations A1..An, then the extension studies X1..Xn.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	rank := func(id string) int {
		switch id[0] {
		case 'E':
			return 0
		case 'A':
			return 1
		default:
			return 2
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ri, rj := rank(out[i].ID), rank(out[j].ID)
		if ri != rj {
			return ri < rj
		}
		return expNum(out[i].ID) < expNum(out[j].ID)
	})
	return out
}

func expNum(id string) int {
	n := 0
	for _, r := range id {
		if r >= '0' && r <= '9' {
			n = n*10 + int(r-'0')
		}
	}
	return n
}
