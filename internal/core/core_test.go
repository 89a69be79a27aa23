package core

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	series := map[byte][]string{} // IDs by prefix, in All() order
	for _, e := range all {
		if e.Title == "" || e.Claim == "" || e.Section == "" || e.Run == nil {
			t.Fatalf("%s is incompletely described", e.ID)
		}
		series[e.ID[0]] = append(series[e.ID[0]], e.ID)
	}
	for prefix, n := range map[byte]int{'E': 32, 'A': 9} {
		if len(series[prefix]) != n {
			t.Fatalf("registered %d %c-series experiments, want %d", len(series[prefix]), prefix, n)
		}
		for i, id := range series[prefix] {
			if want := string(prefix) + strconv.Itoa(i+1); id != want {
				t.Fatalf("%c-series experiment %d has ID %s, want %s", prefix, i, id, want)
			}
		}
	}
	if len(series['X']) != 13 {
		t.Fatalf("registered %d extensions, want 13", len(series['X']))
	}
	// Order: claims, then ablations, then extensions.
	if all[0].ID != "E1" || all[32].ID != "A1" || all[41].ID != "X1" {
		t.Fatalf("ordering wrong: %s, %s, %s", all[0].ID, all[32].ID, all[41].ID)
	}
}

func TestGetUnknown(t *testing.T) {
	if _, ok := Get("E999"); ok {
		t.Fatal("unknown experiment should not resolve")
	}
}

func TestTechniquesCoverAllSections(t *testing.T) {
	sections := map[string]bool{}
	packages := map[string]bool{}
	for _, tech := range Techniques() {
		if tech.Name == "" || tech.Package == "" {
			t.Fatal("incomplete technique entry")
		}
		if len(tech.Improves) == 0 {
			t.Fatalf("%s improves nothing", tech.Name)
		}
		sections[tech.Section] = true
		packages[tech.Package] = true
	}
	for _, s := range []string{"2.1", "2.2", "2.3", "3", "4.1", "4.2", "4.3"} {
		if !sections[s] {
			t.Fatalf("no techniques from tutorial section %s", s)
		}
	}
	for _, p := range []string{"quant", "prune", "distill", "ensemble", "distributed",
		"planner", "checkpoint", "learned", "explore", "fairness", "interpret", "modelstore",
		"green", "fault", "pipeline", "serve"} {
		if !packages[p] {
			t.Fatalf("package %s not represented in the technique framework", p)
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "X", Title: "demo", Claim: "c", Columns: []string{"a", "bb"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("x", "y")
	out := tab.Render()
	for _, want := range []string{"X — demo", "a", "bb", "2.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// rebless is how to re-pin the tables after a change meant to move them.
const rebless = "a change meant to move a table replaces EXPERIMENTS.md's measured block with " +
	"the output of `go run ./cmd/dlsys run all` and names each moved experiment in CHANGES.md"

// pinnedTables splits the fenced block under doc's "Measured tables"
// heading, which is `dlsys run all` output verbatim, into one rendered
// table per ID. The block must hold exactly the tables of exps, in order.
func pinnedTables(doc string, exps []Experiment) (map[string]string, error) {
	_, rest, heading := strings.Cut(doc, "\n## Measured tables")
	_, rest, opened := strings.Cut(rest, "\n```\n")
	block, _, closed := strings.Cut(rest, "\n```")
	if !heading || !opened || !closed {
		return nil, errors.New(`no fenced block under a "## Measured tables" heading`)
	}
	chunks := strings.Split(block, "\n\n")
	pinned := make(map[string]string, len(chunks))
	for i, chunk := range chunks {
		id, _, _ := strings.Cut(chunk, " — ")
		if i >= len(exps) {
			return nil, fmt.Errorf("extra pinned table %s after the last registered experiment", id)
		}
		if id != exps[i].ID {
			return nil, fmt.Errorf("pinned table %d is %s, want %s (All() order)", i+1, id, exps[i].ID)
		}
		pinned[id] = chunk + "\n"
	}
	if len(chunks) < len(exps) {
		return nil, fmt.Errorf("no pinned table for %s", exps[len(chunks)].ID)
	}
	return pinned, nil
}

// TestAllExperimentsRunQuick runs every experiment at Quick scale, checks
// its table's structure, and pins its Render() to its table in
// EXPERIMENTS.md's "Measured tables" block. The pins are the output on
// amd64, CI's GOARCH: outside internal/tensor, Go may fuse multiply-adds on
// arm64. Heavier shape assertions live in the per-package tests.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep skipped in -short mode")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := pinnedTables(string(doc), All())
	if err != nil {
		t.Fatalf("EXPERIMENTS.md: %v; %s", err, rebless)
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tab := e.Run(Quick)
			if tab == nil {
				t.Fatal("nil table")
			}
			if tab.ID != e.ID {
				t.Fatalf("table ID %s != experiment ID %s", tab.ID, e.ID)
			}
			if len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatal("empty table")
			}
			for _, r := range tab.Rows {
				if len(r) != len(tab.Columns) {
					t.Fatalf("row width %d != %d columns", len(r), len(tab.Columns))
				}
			}
			if tab.Shape == "" {
				t.Fatal("experiment did not record its expected shape")
			}
			if got := tab.Render(); got != pinned[e.ID] {
				g, w := strings.Split(got, "\n"), strings.Split(pinned[e.ID], "\n")
				i := 0
				for i < len(g)-1 && i < len(w)-1 && g[i] == w[i] {
					i++
				}
				t.Fatalf("table moved at line %d:\n  got:    %q\n  pinned: %q\n%s", i+1, g[i], w[i], rebless)
			}
		})
	}
}

// X6's acceptance criteria must hold deterministically: at fault rate 0.2
// the fallback fleet's availability is strictly above the full-only
// fleet's at every load, breakers both open and re-close, and the served
// mix's measured accuracy degrades by a bounded amount.
func TestX6FallbackClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("X6 sweep skipped in -short mode")
	}
	e, ok := Get("X6")
	if !ok {
		t.Fatal("X6 not registered")
	}
	tab := e.Run(Quick)
	t.Log("\n" + tab.Render())
	col := map[string]int{}
	for i, c := range tab.Columns {
		col[c] = i
	}
	f := func(row []string, name string) float64 {
		v, err := strconv.ParseFloat(row[col[name]], 64)
		if err != nil {
			t.Fatalf("column %s unparsable in row %v: %v", name, row, err)
		}
		return v
	}
	avail := map[string]map[bool]float64{} // "rate/load" -> fallback -> availability
	var opened, reclosed float64
	for _, row := range tab.Rows {
		key := row[col["fault_rate"]] + "/" + row[col["load"]]
		fb := row[col["fallback"]] == "true"
		if avail[key] == nil {
			avail[key] = map[bool]float64{}
		}
		avail[key][fb] = f(row, "avail")
		if fb {
			opened += f(row, "br_open")
			reclosed += f(row, "br_close")
			if acc := f(row, "served_acc"); acc < 0.70 || acc > 1 {
				t.Fatalf("served-mix accuracy %.3f out of the bounded range at %s", acc, key)
			}
		}
	}
	for _, load := range []string{"0.6", "1.3"} {
		key := "0.2/" + load
		if avail[key][true] <= avail[key][false] {
			t.Fatalf("at %s fallback availability %.3f not strictly above full-only %.3f",
				key, avail[key][true], avail[key][false])
		}
	}
	if opened == 0 || reclosed == 0 {
		t.Fatalf("breakers must both open and re-close: opened %v reclosed %v", opened, reclosed)
	}
}
