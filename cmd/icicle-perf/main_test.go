package main

import (
	"bytes"
	"strings"
	"testing"

	"icicle/internal/boom"
	"icicle/internal/core"
	"icicle/internal/kernel"
	"icicle/internal/perf"
	"icicle/internal/rocket"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run %q: %v", args, err)
	}
	return out.String()
}

// A full-detail report is the header line plus exactly the breakdown a
// direct perf run of the same core and kernel evaluates.
func TestFullDetailMatchesPerf(t *testing.T) {
	k, err := kernel.ByName("vvadd")
	if err != nil {
		t.Fatal(err)
	}
	_, rb, err := perf.RunRocket(rocket.DefaultConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	_, bb, err := perf.RunBoom(boom.NewConfig(boom.Small), k)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want core.Breakdown
	}{
		{[]string{"-core", "rocket", "-kernel", "vvadd"}, rb},
		{[]string{"-core", "boom", "-size", "small", "-kernel", "vvadd"}, bb},
	} {
		got := runOut(t, c.args...)
		header, body, _ := strings.Cut(got, "\n")
		if !strings.HasPrefix(header, "vvadd on ") {
			t.Errorf("%q: header %q", c.args, header)
		}
		if body != c.want.String() {
			t.Errorf("%q: report body differs from perf's breakdown\ngot:\n%s\nwant:\n%s", c.args, body, c.want)
		}
	}
}

// -sample-par only selects the plan engine: the report is the same text
// for any worker count.
func TestSampleParWorkerCountInvariant(t *testing.T) {
	args := []string{"-core", "rocket", "-kernel", "towers", "-sample-window", "512"}
	one := runOut(t, append(args, "-sample-par", "1")...)
	four := runOut(t, append(args, "-sample-par", "4")...)
	if one != four {
		t.Errorf("-sample-par 1 and 4 print different reports\n1:\n%s\n4:\n%s", one, four)
	}
	if !strings.Contains(one, "sampled (") {
		t.Errorf("sampled run printed no estimation summary:\n%s", one)
	}
}

func TestUnknownCore(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-core", "cray", "-kernel", "vvadd"}, &out); err == nil {
		t.Errorf("unknown core accepted; printed %q", out.String())
	}
}
