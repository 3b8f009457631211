package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestQuickSweepAllExperiments runs every experiment at smoke size. Its
// artifacts go to a temporary directory: a test must not write into the
// source tree, and without -csv the sweep writes no file at all.
func TestQuickSweepAllExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	if err := run([]string{"-quick", "-csv", dir}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "BENCH_CACHE.json")); err != nil {
		t.Errorf("the CACHE experiment's JSON artifact is missing from -csv's directory: %v", err)
	}
}

func TestSingleExperimentSelection(t *testing.T) {
	for _, exp := range []string{"T1", "T2", "E1", "BACK"} {
		if err := run([]string{"-quick", "-exp", exp}); err != nil {
			t.Errorf("%s: %v", exp, err)
		}
	}
}
