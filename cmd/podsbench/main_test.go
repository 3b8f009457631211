package main

import (
	"os"
	"strings"
	"testing"
)

// TestQuickSweepAllExperiments runs every experiment at smoke size and
// compares its output with testdata/quick.txt, byte for byte apart from
// the wall-time and "(wrote …)" lines: every number of the paper's tables
// and figures is virtual time or an instruction count, so a change that
// moves one shows here. Regenerate the file only for a change meant to
// move a number:
//
//	go run ./cmd/podsbench -quick | grep -v '^total wall time:' >cmd/podsbench/testdata/quick.txt
//
// The CSVs go to a temporary directory: a test must not write into the
// source tree.
func TestQuickSweepAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var out strings.Builder
	if err := run([]string{"-quick", "-csv", t.TempDir()}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/quick.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.SplitAfter(out.String(), "\n") {
		if !strings.HasPrefix(line, "total wall time:") && !strings.HasPrefix(line, "(wrote ") {
			got = append(got, line)
		}
	}
	wantLines := strings.SplitAfter(string(want), "\n")
	for i := range max(len(got), len(wantLines)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from testdata/quick.txt:\n got %q\nwant %q", i+1, g, w)
		}
	}
}

func TestSingleExperimentSelection(t *testing.T) {
	for _, exp := range []string{"T1", "T2", "E1", "t1,x1"} {
		if err := run([]string{"-quick", "-exp", exp}, new(strings.Builder)); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
	// An unknown id is an error, not a run of nothing.
	for _, exp := range []string{"NOPE", "TRACE", "SERVE", "T1,NOPE"} {
		err := run([]string{"-quick", "-exp", exp}, new(strings.Builder))
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), "PAGE") {
			t.Errorf("-exp %s: got %v, want an unknown-experiment error listing the valid ids", exp, err)
		}
	}
}
