package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/cluster"
)

func TestRunBuiltinMatmulInProcess(t *testing.T) {
	if err := run([]string{"-builtin", "matmul", "-pes", "4", "-args", "6", "-dump", "C"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSourceFile(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "p.id")
	prog := `
func main(n: int) -> int {
	s = 0;
	for k = 1 to n {
		next s = s + k;
	}
	return s;
}`
	if err := os.WriteFile(src, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-pes", "2", "-args", "10", src}); err != nil {
		t.Fatal(err)
	}
}

// TestRunOverTCPWorkers drives in-process TCP workers through the same
// code path a multi-process deployment uses, with stealing on and a spare
// standing by: the two flags go together.
func TestRunOverTCPWorkers(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var addrs []string
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := cluster.ServeWorker(ctx, ln); err != nil && ctx.Err() == nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	err := run([]string{"-builtin", "mirror", "-workers", addrs[0] + "," + addrs[1], "-spares", addrs[2],
		"-steal", "-args", "8"})
	if err != nil {
		t.Fatal(err)
	}
	cancel() // the unused spare serves until then
	wg.Wait()
}

// TestRunBuiltinConduction: podsd resolves the SIMPLE programs as well as
// the kernels.
func TestRunBuiltinConduction(t *testing.T) {
	if err := run([]string{"-builtin", "conduction", "-pes", "2", "-args", "8"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-builtin", "nope"}); err == nil {
		t.Fatal("want error for unknown builtin")
	}
	if err := run([]string{}); err == nil {
		t.Fatal("want usage error with no program")
	}
	if err := run([]string{"-builtin", "matmul", "-args", "x"}); err == nil {
		t.Fatal("want error for bad argument")
	}
}
