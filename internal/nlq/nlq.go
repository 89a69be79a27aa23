// Package nlq implements a small natural-language query interface over the
// column store — Part 2's "recurrent neural networks ... enable natural
// language querying of databases" (Sen et al.), scaled to this repository:
// a learned intent classifier over bag-of-words features maps an English
// utterance to a query template (aggregate + target column + optional
// filter column), numeric bounds are extracted by scanning, and the query
// executes against internal/db. The baseline is a hand-written keyword
// matcher that only knows canonical words; the classifier learns synonyms
// and phrasing from examples.
package nlq

import (
	"math/rand"
	"strconv"
	"strings"

	"dlsys/internal/db"
	"dlsys/internal/nn"
	"dlsys/internal/tensor"
)

// Query is the structured form an utterance parses to.
type Query struct {
	Agg       db.Agg
	TargetCol string
	FilterCol string // empty = no filter
	Lo, Hi    float64
}

// Execute runs the query against a table. A parse that hallucinated a
// column or aggregate surfaces as the table's typed argument error rather
// than a panic — the natural failure mode for language-derived queries.
func (q Query) Execute(t *db.Table) (float64, error) {
	var preds []db.Pred
	if q.FilterCol != "" {
		preds = append(preds, db.Pred{Col: q.FilterCol, Lo: q.Lo, Hi: q.Hi})
	}
	return t.Aggregate(q.Agg, q.TargetCol, preds)
}

// aggNames maps aggregate ids to their synonym sets. The FIRST synonym is
// the canonical word the keyword baseline knows.
var aggNames = map[db.Agg][]string{
	db.AggMean:  {"average", "mean", "typical", "expected"},
	db.AggSum:   {"sum", "total", "combined", "overall"},
	db.AggCount: {"count", "many", "number"},
	db.AggMin:   {"minimum", "smallest", "lowest", "least"},
	db.AggMax:   {"maximum", "largest", "highest", "biggest"},
}

// Intent identifies a (aggregate, target, filter) combination as a class.
type Intent struct {
	Agg       db.Agg
	TargetCol string
	FilterCol string
}

// Schema describes the queryable table for utterance generation and
// parsing.
type Schema struct {
	Columns []string
	// Synonyms[col] lists ways users refer to the column; the first entry
	// is the canonical name.
	Synonyms map[string][]string
}

// Intents enumerates every possible intent for the schema.
func (s Schema) Intents() []Intent {
	var out []Intent
	for _, agg := range []db.Agg{db.AggMean, db.AggSum, db.AggCount, db.AggMin, db.AggMax} {
		for _, target := range s.Columns {
			out = append(out, Intent{Agg: agg, TargetCol: target})
			for _, filter := range s.Columns {
				if filter != target {
					out = append(out, Intent{Agg: agg, TargetCol: target, FilterCol: filter})
				}
			}
		}
	}
	return out
}

// Utterance is a labelled training example.
type Utterance struct {
	Text   string
	Intent Intent
	Lo, Hi float64
}

// GenerateUtterances produces labelled examples by sampling templates and
// synonyms for each intent.
func GenerateUtterances(rng *rand.Rand, s Schema, perIntent int) []Utterance {
	var out []Utterance
	for _, intent := range s.Intents() {
		for k := 0; k < perIntent; k++ {
			out = append(out, renderUtterance(rng, s, intent))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func pick(rng *rand.Rand, opts []string) string { return opts[rng.Intn(len(opts))] }

func renderUtterance(rng *rand.Rand, s Schema, intent Intent) Utterance {
	aggWord := pick(rng, aggNames[intent.Agg])
	target := pick(rng, s.Synonyms[intent.TargetCol])
	var b strings.Builder
	openers := []string{"what is the", "show me the", "tell me the", "give the", "find the"}
	if intent.Agg == db.AggCount {
		countOpeners := []string{"how many", "count the", "what number of"}
		b.WriteString(pick(rng, countOpeners))
		b.WriteString(" ")
		b.WriteString(target)
		b.WriteString(" records")
	} else {
		b.WriteString(pick(rng, openers))
		b.WriteString(" ")
		b.WriteString(aggWord)
		b.WriteString(" ")
		b.WriteString(target)
	}
	u := Utterance{Intent: intent}
	if intent.FilterCol != "" {
		filter := pick(rng, s.Synonyms[intent.FilterCol])
		lo := float64(rng.Intn(40))
		hi := lo + 1 + float64(rng.Intn(40))
		u.Lo, u.Hi = lo, hi
		connectors := []string{"where", "for", "with", "when"}
		b.WriteString(" ")
		b.WriteString(pick(rng, connectors))
		b.WriteString(" ")
		b.WriteString(filter)
		b.WriteString(" is between ")
		b.WriteString(strconv.FormatFloat(lo, 'f', -1, 64))
		b.WriteString(" and ")
		b.WriteString(strconv.FormatFloat(hi, 'f', -1, 64))
	}
	u.Text = b.String()
	return u
}

// Vocabulary is the token index used by the bag-of-words encoder.
type Vocabulary struct {
	index map[string]int
}

// BuildVocabulary indexes every token in the corpus.
func BuildVocabulary(utterances []Utterance) *Vocabulary {
	v := &Vocabulary{index: map[string]int{}}
	for _, u := range utterances {
		for _, tok := range tokens(u.Text) {
			if _, ok := v.index[tok]; !ok {
				v.index[tok] = len(v.index)
			}
		}
	}
	return v
}

func tokens(text string) []string {
	fields := strings.Fields(strings.ToLower(text))
	out := fields[:0]
	for _, f := range fields {
		// Drop pure numbers: bounds are extracted separately, and their
		// surface forms would bloat the vocabulary.
		if _, err := strconv.ParseFloat(f, 64); err == nil {
			continue
		}
		out = append(out, f)
	}
	return out
}

// connectorWords split an utterance into its projection part and its
// filter part; the two segments are encoded separately because plain
// bag-of-words cannot tell "average salary where age ..." from
// "average age where salary ..." (same bag, different queries).
var connectorWords = map[string]bool{"where": true, "for": true, "with": true, "when": true}

// FeatureSize is the encoded width: one bag per segment.
func (v *Vocabulary) FeatureSize() int { return 2 * len(v.index) }

// Encode produces the segmented bag-of-words feature row for an utterance:
// tokens before the first connector fill the first half, tokens after fill
// the second half.
func (v *Vocabulary) Encode(text string) []float64 {
	f := make([]float64, 2*len(v.index))
	segment := 0
	for _, tok := range tokens(text) {
		if connectorWords[tok] {
			segment = 1
		}
		if i, ok := v.index[tok]; ok {
			f[segment*len(v.index)+i] = 1
		}
	}
	return f
}

// Parser is the trained NL→query system.
type Parser struct {
	vocab   *Vocabulary
	net     *nn.Network
	intents []Intent
}

// TrainParser fits the intent classifier on labelled utterances.
func TrainParser(rng *rand.Rand, s Schema, utterances []Utterance, epochs int) *Parser {
	vocab := BuildVocabulary(utterances)
	intents := s.Intents()
	intentIdx := map[Intent]int{}
	for i, it := range intents {
		intentIdx[it] = i
	}
	x := tensor.New(len(utterances), vocab.FeatureSize())
	labels := make([]int, len(utterances))
	for i, u := range utterances {
		copy(x.Row(i), vocab.Encode(u.Text))
		labels[i] = intentIdx[u.Intent]
	}
	net := nn.NewMLP(rng, nn.MLPConfig{In: vocab.FeatureSize(), Hidden: []int{48}, Out: len(intents)})
	tr := nn.NewTrainer(net, nn.NewSoftmaxCrossEntropy(), nn.NewAdam(0.01), rng)
	tr.Fit(x, nn.OneHot(labels, len(intents)), nn.TrainConfig{Epochs: epochs, BatchSize: 32})
	return &Parser{vocab: vocab, net: net, intents: intents}
}

// Parse converts an utterance to a structured query.
func (p *Parser) Parse(text string) Query {
	x := tensor.FromSlice(p.vocab.Encode(text), 1, p.vocab.FeatureSize())
	intent := p.intents[p.net.Predict(x)[0]]
	q := Query{Agg: intent.Agg, TargetCol: intent.TargetCol, FilterCol: intent.FilterCol}
	if q.FilterCol != "" {
		q.Lo, q.Hi = extractBounds(text)
	}
	return q
}

// extractBounds pulls the first two numbers from the utterance.
func extractBounds(text string) (lo, hi float64) {
	var nums []float64
	for _, f := range strings.Fields(text) {
		if v, err := strconv.ParseFloat(strings.Trim(f, ",.?"), 64); err == nil {
			nums = append(nums, v)
		}
	}
	if len(nums) >= 2 {
		lo, hi = nums[0], nums[1]
		if lo > hi {
			lo, hi = hi, lo
		}
	}
	return lo, hi
}

// KeywordBaseline parses with exact canonical-word matching only: it knows
// "average", "sum", "count", "minimum", "maximum" and the canonical column
// names, so synonyms and paraphrases fall through to defaults.
type KeywordBaseline struct {
	Schema Schema
}

// Parse applies the keyword rules.
func (k *KeywordBaseline) Parse(text string) Query {
	lower := " " + strings.ToLower(text) + " "
	q := Query{Agg: db.AggCount}
	for agg, names := range aggNames {
		if strings.Contains(lower, " "+names[0]+" ") {
			q.Agg = agg
			break
		}
	}
	// First canonical column mentioned = target; second = filter.
	type hit struct {
		col string
		pos int
	}
	var hits []hit
	for _, col := range k.Schema.Columns {
		if p := strings.Index(lower, " "+col+" "); p >= 0 {
			hits = append(hits, hit{col, p})
		}
	}
	for i := 0; i < len(hits); i++ {
		for j := i + 1; j < len(hits); j++ {
			if hits[j].pos < hits[i].pos {
				hits[i], hits[j] = hits[j], hits[i]
			}
		}
	}
	if len(hits) > 0 {
		q.TargetCol = hits[0].col
	} else {
		q.TargetCol = k.Schema.Columns[0]
	}
	if len(hits) > 1 {
		q.FilterCol = hits[1].col
		q.Lo, q.Hi = extractBounds(text)
	}
	return q
}

// ExactMatch reports whether a parsed query matches the labelled truth.
func ExactMatch(got Query, u Utterance) bool {
	if got.Agg != u.Intent.Agg || got.TargetCol != u.Intent.TargetCol || got.FilterCol != u.Intent.FilterCol {
		return false
	}
	if u.Intent.FilterCol != "" && (got.Lo != u.Lo || got.Hi != u.Hi) {
		return false
	}
	return true
}

// Accuracy measures exact-parse accuracy of a parse function over
// utterances.
func Accuracy(parse func(string) Query, utterances []Utterance) float64 {
	hit := 0
	for _, u := range utterances {
		if ExactMatch(parse(u.Text), u) {
			hit++
		}
	}
	return float64(hit) / float64(len(utterances))
}
