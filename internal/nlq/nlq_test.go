package nlq

import (
	"errors"
	"math/rand"
	"testing"

	"dlsys/internal/db"
	"dlsys/internal/invalid"
)

// must unwraps (value, error) pairs whose arguments are valid by
// construction; a failure is a test bug, so it panics.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func testSchema() Schema {
	return Schema{
		Columns: []string{"salary", "age"},
		Synonyms: map[string][]string{
			"salary": {"salary", "pay", "income", "wage"},
			"age":    {"age", "years"},
		},
	}
}

func TestIntentsEnumeration(t *testing.T) {
	s := testSchema()
	// 5 aggregates × 2 targets × (1 no-filter + 1 other-column filter) = 20.
	if got := len(s.Intents()); got != 20 {
		t.Fatalf("intents %d, want 20", got)
	}
}

func TestGeneratedUtterancesParseable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	us := GenerateUtterances(rng, testSchema(), 3)
	if len(us) != 60 {
		t.Fatalf("utterances %d", len(us))
	}
	for _, u := range us {
		if u.Text == "" {
			t.Fatal("empty utterance")
		}
		if u.Intent.FilterCol != "" {
			lo, hi := extractBounds(u.Text)
			if lo != u.Lo || hi != u.Hi {
				t.Fatalf("bounds not recoverable from %q: got %g-%g want %g-%g",
					u.Text, lo, hi, u.Lo, u.Hi)
			}
		}
	}
}

func TestParserHighAccuracyOnHeldOut(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := testSchema()
	train := GenerateUtterances(rng, s, 25)
	test := GenerateUtterances(rand.New(rand.NewSource(3)), s, 6)
	p := TrainParser(rand.New(rand.NewSource(4)), s, train, 40)
	acc := Accuracy(p.Parse, test)
	if acc < 0.9 {
		t.Fatalf("parser exact-match accuracy %.3f < 0.9", acc)
	}
}

func TestParserBeatsKeywordBaseline(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := testSchema()
	train := GenerateUtterances(rng, s, 25)
	test := GenerateUtterances(rand.New(rand.NewSource(6)), s, 6)
	p := TrainParser(rand.New(rand.NewSource(7)), s, train, 40)
	kb := &KeywordBaseline{Schema: s}
	pAcc := Accuracy(p.Parse, test)
	kAcc := Accuracy(kb.Parse, test)
	t.Logf("exact match: learned %.3f, keyword baseline %.3f", pAcc, kAcc)
	if pAcc <= kAcc {
		t.Fatalf("learned parser (%.3f) should beat keywords (%.3f) on paraphrases", pAcc, kAcc)
	}
}

func TestEndToEndExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := testSchema()
	train := GenerateUtterances(rng, s, 25)
	p := TrainParser(rand.New(rand.NewSource(9)), s, train, 40)

	tab := db.NewTable("emp", "salary", "age")
	tab.Append(100, 30)
	tab.Append(200, 40)
	tab.Append(300, 50)

	q := p.Parse("what is the average salary where age is between 35 and 55")
	if q.Agg != db.AggMean || q.TargetCol != "salary" || q.FilterCol != "age" {
		t.Fatalf("parsed %+v", q)
	}
	if got := must(q.Execute(tab)); got != 250 {
		t.Fatalf("executed answer %g, want 250", got)
	}

	// A paraphrase with synonyms the keyword baseline cannot handle.
	q2 := p.Parse("give the typical pay when years is between 35 and 55")
	if q2.Agg != db.AggMean || q2.TargetCol != "salary" || q2.FilterCol != "age" {
		t.Fatalf("paraphrase parsed as %+v", q2)
	}
	if got := must(q2.Execute(tab)); got != 250 {
		t.Fatalf("paraphrase answer %g, want 250", got)
	}
}

func TestExtractBoundsOrdering(t *testing.T) {
	lo, hi := extractBounds("between 40 and 10")
	if lo != 10 || hi != 40 {
		t.Fatalf("bounds %g, %g", lo, hi)
	}
}

func TestVocabularyDropsNumbers(t *testing.T) {
	us := []Utterance{{Text: "average salary between 10 and 20"}}
	v := BuildVocabulary(us)
	enc := v.Encode("average salary between 999 and 888")
	sum := 0.0
	for _, x := range enc {
		sum += x
	}
	// "average", "salary", "between", "and" = 4 tokens, numbers excluded.
	if sum != 4 {
		t.Fatalf("encoded %g tokens, want 4", sum)
	}
}

func TestExecuteRejectsHallucinatedColumn(t *testing.T) {
	tab := db.NewTable("people", "salary", "age")
	must(0, tab.Append(100, 30))
	q := Query{Agg: db.AggMean, TargetCol: "bonus"}
	_, err := q.Execute(tab)
	if err == nil {
		t.Fatal("query over a nonexistent column executed")
	}
	var ae *invalid.Error
	if !errors.As(err, &ae) {
		t.Fatalf("error %v is not a *invalid.Error", err)
	}
}
