package main

import (
	"context"
	"flag"
	"os"
	"strings"
	"testing"

	"gfcube/internal/core"
	"gfcube/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite golden/*.txt from the serial references")

// checkGolden compares lines with the committed golden table, or rewrites
// it under -update.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	if *update {
		if err := os.WriteFile("golden/"+name+".txt", []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := golden(name)
	if err != nil {
		t.Fatal(err)
	}
	if bad := mismatches(lines, want); bad > 0 {
		t.Fatalf("%s: %d lines differ from the golden table", name, bad)
	}
}

// The census golden table is the serial reference core.ClassifyAll.
func TestGoldenCensus(t *testing.T) {
	cells := core.ClassifyAll(censusSpec.MaxLen, core.GridOptions{
		MinLen: censusSpec.MinLen, MinD: censusSpec.MinD, MaxD: censusSpec.MaxD, Method: censusSpec.Method,
	})
	lines := make([]string, len(cells))
	for i, c := range cells {
		lines[i] = cellLine(c)
	}
	checkGolden(t, censusKind.name, lines)
}

// The survey golden table is a serial per-class first-failure scan over
// from-scratch cubes, with the paper's verdict as the theory column.
func TestGoldenSurvey(t *testing.T) {
	var lines []string
	for _, cl := range core.Classes(surveySpec.MinLen, surveySpec.MaxLen) {
		row := sweep.SurveyRow{Class: cl, Theory: "-"}
		for d := cl.Rep.Len() + 1; d <= surveySpec.MaxD; d++ {
			if _, found := core.New(d, cl.Rep).HasCriticalPair(3); found {
				row.FirstFail = d
				break
			}
		}
		if c := core.Classify(cl.Rep, surveySpec.MaxD); c.Verdict != core.Unknown {
			row.Theory = c.Reason
		}
		lines = append(lines, surveyLine(row))
	}
	checkGolden(t, surveyKind.name, lines)
}

// The measured passes and the traced decompositions reproduce the golden
// tables.
func TestPassesMatchGolden(t *testing.T) {
	if *update {
		t.Skip("golden tables are being rewritten")
	}
	for _, k := range []sweepKind{censusKind, surveyKind} {
		want, err := golden(k.name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := k.pass(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if bad := mismatches(got, want); bad > 0 {
			t.Errorf("%s pass: %d lines differ", k.name, bad)
		}
		got, _, err = tracedPass(newTracer(), k)
		if err != nil {
			t.Fatal(err)
		}
		if bad := mismatches(got, want); bad > 0 {
			t.Errorf("%s traced pass: %d lines differ", k.name, bad)
		}
	}
}
