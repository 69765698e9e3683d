package main

import (
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "s1", "-n", "40", "-horizon", "10", "-warmup", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "closed form") {
		t.Errorf("missing closed-form series:\n%s", out.String())
	}
}

func TestRunChart(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "s1", "-chart", "-n", "40", "-horizon", "10", "-warmup", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"c  closed form (Thm 2)  m-system",                   // the table's header row
		"\n  * closed form (Thm 2)\n  o m-system\n  + sim\n", // the chart's legend
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunCSV(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-experiment", "overhead", "-csv", "-n", "40", "-horizon", "10", "-warmup", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(out.String(), "\n", 2)[0]
	if !strings.HasPrefix(first, "mu,") {
		t.Errorf("CSV header = %q", first)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "nope"}, &out); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunCSVWithAllRejected(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "all", "-csv"}, &out); err == nil {
		t.Error("-csv with all accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}
