package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/isa"
	"repro/internal/kernels"
)

// TestCompileBuiltins: every name the tools' one resolver accepts —
// simple, conduction and every kernel — compiles.
func TestCompileBuiltins(t *testing.T) {
	names := kernels.BuiltinNames()
	if len(names) != 2+len(kernels.All()) {
		t.Fatalf("%d builtin names for simple, conduction and %d kernels", len(names), len(kernels.All()))
	}
	for _, b := range names {
		if err := run([]string{"-builtin", b}); err != nil {
			t.Errorf("builtin %s: %v", b, err)
		}
	}
}

func TestCompileFileAndEmitPods(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.id")
	out := filepath.Join(dir, "p.pods")
	prog := `
func main(n: int) {
	A = array(n);
	for i = 1 to n {
		A[i] = float(i);
	}
}`
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-listing", "-o", out, src}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := isa.ReadPods(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Templates) != 2 {
		t.Errorf("templates = %d, want 2", len(p.Templates))
	}
}

func TestCompileErrors(t *testing.T) {
	if err := run([]string{"-builtin", "nope"}); err == nil {
		t.Error("unknown builtin accepted")
	}
	if err := run([]string{"/does/not/exist.id"}); err == nil {
		t.Error("missing file accepted")
	}
	if err := run(nil); err == nil {
		t.Error("no args accepted")
	}
}
