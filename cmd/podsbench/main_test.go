package main

import (
	"strings"
	"testing"
)

// TestQuickSweepAllExperiments runs every experiment at smoke size. Its
// artifacts go to a temporary directory: a test must not write into the
// source tree, and without -csv the sweep writes no file at all.
func TestQuickSweepAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run([]string{"-quick", "-csv", t.TempDir()}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleExperimentSelection(t *testing.T) {
	for _, exp := range []string{"T1", "T2", "E1", "BACK"} {
		if err := run([]string{"-quick", "-exp", exp}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
	// An unknown id is an error, not a run of nothing.
	for _, exp := range []string{"NOPE", "TRACE", "SERVE", "T1,NOPE"} {
		err := run([]string{"-quick", "-exp", exp})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), "CACHE") {
			t.Errorf("-exp %s: got %v, want an unknown-experiment error listing the valid ids", exp, err)
		}
	}
}
