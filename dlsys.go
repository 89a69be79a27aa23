// Package dlsys is a from-scratch Go reproduction of the systems described
// in the SIGMOD 2021 tutorial "Deep Learning: Systems and Responsibility"
// (Wasay, Chatterjee, Idreos). It implements, with no dependencies beyond
// the standard library:
//
//   - Part 1 — a neural-network engine (internal/tensor, internal/nn) and
//     the systems techniques the tutorial surveys: quantization, pruning,
//     and distillation (internal/quant, internal/prune, internal/distill);
//     ensemble training shortcuts including Snapshot Ensembles, FGE,
//     TreeNets, and MotherNets (internal/ensemble); simulated distributed
//     training with Local SGD, gradient compression, and fault tolerance —
//     retrying transport, straggler mitigation, crash recovery from
//     CRC-protected model snapshots — over pluggable collective topologies
//     (all-to-all mesh, ring all-reduce, binary tree, hierarchical) with
//     elastic worker membership, under deterministic fault injection
//     including per-link drops, slowdowns, and partitions
//     (internal/distributed, internal/fault); Byzantine-robust aggregation
//     (coordinate median, trimmed mean, Krum, norm clipping) with
//     reputation-based quarantine of adversarial workers (internal/robust);
//     self-healing training that
//     detects numerical faults and divergence and remediates by skipping,
//     clipping, LR backoff, and checkpoint rollback, with a replayable
//     incident ledger (internal/guard); activation checkpointing,
//     offloading, and model-state snapshots (internal/checkpoint); and
//     FlexFlow/MorphNet-style optimization (internal/planner) over
//     simulated hardware (internal/device).
//
//   - Part 2 — an in-memory database substrate (internal/db: column store,
//     B-tree, Bloom filter, histograms, join optimizer) and the learned
//     components that enhance or replace it (internal/learned: RMI learned
//     index, learned Bloom filter, neural selectivity estimation, RL knob
//     tuning, learned join costing; internal/explore: RL-guided
//     exploration, similarity embeddings, autoencoder compression).
//
//   - Part 3 — responsibility tooling: fairness metrics and mitigations
//     (internal/fairness), interpretability methods from t-SNE to LIME to
//     saliency (internal/interpret), a Mistique-style intermediates store
//     (internal/modelstore), and carbon accounting plus carbon-aware
//     scheduling (internal/green).
//
// The tutorial publishes no tables or figures; its claims are reproduced
// as 32 registered experiments (E1-E32), each regenerating a results
// table, plus nine design-choice ablations (A1-A9) and the extension
// studies of cited systems (X1-X12, X14). This package is the facade: list
// experiments, run them, and render their tables. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for expected-vs-measured shapes.
package dlsys

import (
	"fmt"

	"dlsys/internal/core"
	"dlsys/internal/pipeline"
)

// Table is a regenerated experiment result (re-exported from core).
type Table = core.Table

// Experiment is a registered reproduction target (re-exported from core).
type Experiment = core.Experiment

// Technique classifies one implemented method within the tutorial's
// tradeoff framework (re-exported from core).
type Technique = core.Technique

// Experiments returns all registered experiments: the claim reproductions
// E1..E32, then the ablations A1..A9, then the extensions X1..X12, X14.
func Experiments() []Experiment { return core.All() }

// Techniques returns the tradeoff classification of every implemented
// technique — the organising framework of the tutorial.
func Techniques() []Technique { return core.Techniques() }

// PipelineSpec declares a train/compress/deploy pipeline (re-exported from
// pipeline); zero-valued stages are skipped.
type PipelineSpec = pipeline.Spec

// PipelineLedger is an executed pipeline's tradeoff metrics.
type PipelineLedger = pipeline.Ledger

// RunPipeline executes a declared pipeline and returns its metric ledger —
// the "declarative interface" entry point.
func RunPipeline(spec PipelineSpec) (PipelineLedger, error) { return pipeline.Run(spec) }

// ComparePipelines runs several pipeline specs and returns their ledgers.
func ComparePipelines(specs ...PipelineSpec) ([]PipelineLedger, error) {
	return pipeline.Compare(specs...)
}

// RunExperiment executes one experiment by ID ("E1".."E32", "A1".."A9",
// "X1".."X12", "X14").
// With full set, problem sizes match the documented tables; otherwise a
// quick scale keeps runs in the low seconds.
func RunExperiment(id string, full bool) (*Table, error) {
	e, ok := core.Get(id)
	if !ok {
		return nil, fmt.Errorf("dlsys: unknown experiment %q (have E1..E32, A1..A9, X1..X12, X14)", id)
	}
	scale := core.Quick
	if full {
		scale = core.Full
	}
	return e.Run(scale), nil
}
