package podsrt_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/istructure"
	"repro/internal/partition"
	"repro/internal/podsrt"
	"repro/internal/sim"
	"repro/internal/simple"
)

func compile(t testing.TB, src string) *isa.Program {
	t.Helper()
	prog, _, err := core.Compile("rt.id", src, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func runRT(t *testing.T, prog *isa.Program, pes int, args ...isa.Value) (*isa.Value, *podsrt.Runtime) {
	t.Helper()
	rt, err := podsrt.New(prog, podsrt.Config{VirtualPEs: pes, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	v, err := rt.Run(ctx, args...)
	if err != nil {
		t.Fatalf("runtime (PEs=%d): %v", pes, err)
	}
	return v, rt
}

func TestRuntimeScalarResult(t *testing.T) {
	prog := compile(t, `
func main(n: int) -> int {
	s = 0;
	for k = 1 to n {
		next s = s + k * k;
	}
	return s;
}`)
	v, _ := runRT(t, prog, 2, isa.Int(10))
	if v == nil || v.I != 385 {
		t.Fatalf("result = %+v, want 385", v)
	}
}

// TestEntryArgsAllBackends: the simulator, the cluster and this runtime
// share one entry calling convention. Each rejects a wrong argument count
// under its own prefix, and each returns a result-returning entry's value
// through the continuation the convention appends.
func TestEntryArgsAllBackends(t *testing.T) {
	prog := compile(t, `
func main(n: int) -> int {
	return n * 3 + 1;
}`)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	backends := []struct {
		prefix string
		run    func(args ...isa.Value) (int64, error)
	}{
		{"sim: ", func(args ...isa.Value) (int64, error) {
			m, err := sim.New(prog, sim.Config{NumPEs: 2})
			if err != nil {
				return 0, err
			}
			res, err := m.Run(args...)
			if err != nil {
				return 0, err
			}
			return res.MainValue.I, nil
		}},
		{"cluster: ", func(args ...isa.Value) (int64, error) {
			res, err := cluster.Execute(ctx, prog, cluster.Config{NumPEs: 2}, args...)
			if err != nil {
				return 0, err
			}
			return res.Value.I, nil
		}},
		{"podsrt: ", func(args ...isa.Value) (int64, error) {
			rt, err := podsrt.New(prog, podsrt.Config{VirtualPEs: 2})
			if err != nil {
				return 0, err
			}
			v, err := rt.Run(ctx, args...)
			if err != nil {
				return 0, err
			}
			return v.I, nil
		}},
	}
	for _, b := range backends {
		for _, args := range [][]isa.Value{nil, {isa.Int(1), isa.Int(2)}} {
			want := fmt.Sprintf(`%sentry "main" wants 1 args, got %d`, b.prefix, len(args))
			if _, err := b.run(args...); err == nil || err.Error() != want {
				t.Errorf("%s%d args: err = %v, want %q", b.prefix, len(args), err, want)
			}
		}
		if v, err := b.run(isa.Int(4)); err != nil || v != 13 {
			t.Errorf("%smain(4) = %d, %v; want 13", b.prefix, v, err)
		}
	}
}

func TestRuntimeMatchesSimulator(t *testing.T) {
	src := `
func main(n: int) {
	A = array(n, n);
	B = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i * 3 + j);
		}
	}
	for i2 = 1 to n {
		for j2 = 1 to n {
			s = 0.0;
			for k = 1 to n {
				next s = s + A[i2, k] * A[k, j2];
			}
			B[i2, j2] = s;
		}
	}
}`
	const n = 6
	prog := compile(t, src)

	mach, err := sim.New(prog, sim.Config{NumPEs: 4, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(isa.Int(n)); err != nil {
		t.Fatal(err)
	}
	simVals, _, _, err := mach.ReadArray("B")
	if err != nil {
		t.Fatal(err)
	}

	for _, pes := range []int{1, 4, 7} {
		_, rt := runRT(t, prog, pes, isa.Int(n))
		rtVals, mask, _, err := rt.ReadArray("B")
		if err != nil {
			t.Fatal(err)
		}
		for i := range rtVals {
			if !mask[i] {
				t.Fatalf("PEs=%d: B[%d] unwritten", pes, i)
			}
			if rtVals[i] != simVals[i] {
				t.Fatalf("PEs=%d: runtime B[%d]=%v, simulator %v (Church-Rosser violated)", pes, i, rtVals[i], simVals[i])
			}
		}
	}
}

func TestRuntimeSIMPLEMatchesNative(t *testing.T) {
	const n = 8
	prog := compile(t, simple.Source)
	ref := simple.NewGrid(n)
	ref.Step()
	_, rt := runRT(t, prog, 4, isa.Int(n))
	vals, mask, _, err := rt.ReadArray("t2")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n*n; i++ {
		if !mask[i] {
			t.Fatalf("t2[%d] unwritten", i)
		}
		if d := vals[i] - ref.T2[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("t2[%d]=%v, native %v", i, vals[i], ref.T2[i])
		}
	}
}

func TestRuntimeDeadlockReported(t *testing.T) {
	prog := compile(t, `
func main() {
	A = array(64);
	x = A[5] + 1.0; # never written
	A[1] = x;
}`)
	rt, err := podsrt.New(prog, podsrt.Config{VirtualPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := rt.Run(ctx); err == nil {
		t.Fatal("deadlocked program should report an error")
	}
}

// TestRuntimeMailboxOverflowEndsWithRun: tokens wait in the mailbox until
// their SP blocks, and the mailbox holds one per slot. An SP that sends
// itself more without ever blocking waits on its own mailbox; the run's
// deadline ends that wait instead of hanging Run.
func TestRuntimeMailboxOverflowEndsWithRun(t *testing.T) {
	self := isa.NewInstr(isa.SELF)
	self.Dst = 0
	one := isa.NewInstr(isa.CONST)
	one.Dst, one.Imm = 1, isa.Float(1)
	send := isa.NewInstr(isa.SEND)
	send.A, send.B, send.Imm = 0, 1, isa.Int(2)
	code := []isa.Instr{self, one, send, send, send, send, send, isa.NewInstr(isa.HALT)}
	prog := &isa.Program{Templates: []*isa.Template{{Name: "main", Kind: isa.TmplMain, NSlots: 3, Code: code}}}
	rt, err := podsrt.New(prog, podsrt.Config{VirtualPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := rt.Run(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the run's deadline", err)
	}
}

func TestRuntimeSingleAssignmentViolation(t *testing.T) {
	prog := compile(t, `
func main() {
	A = array(64);
	for i = 1 to 2 {
		A[1] = float(i); # written twice
	}
}`)
	rt, err := podsrt.New(prog, podsrt.Config{VirtualPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = rt.Run(ctx)
	var sav *istructure.SingleAssignmentError
	if !errors.As(err, &sav) {
		t.Fatalf("err = %v, want SingleAssignmentError", err)
	}
}

func TestRuntimeRepeatedRunsDeterministic(t *testing.T) {
	src := `
func main(n: int) {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i) / float(j) + float(j) * 0.5;
		}
	}
}`
	prog := compile(t, src)
	var ref []float64
	for trial := 0; trial < 5; trial++ {
		_, rt := runRT(t, prog, 4, isa.Int(12))
		vals, _, _, err := rt.ReadArray("A")
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = vals
			continue
		}
		for i := range vals {
			if vals[i] != ref[i] {
				t.Fatalf("trial %d: A[%d]=%v != %v", trial, i, vals[i], ref[i])
			}
		}
	}
}

func TestRuntimeWhileLoop(t *testing.T) {
	prog := compile(t, `
func main(x: int) -> float {
	c = float(x);
	g = c;
	while g * g - c > 0.000001 {
		next g = 0.5 * (g + c / g);
	}
	return g;
}`)
	v, _ := runRT(t, prog, 2, isa.Int(81))
	if v == nil || v.F() < 8.999999 || v.F() > 9.000001 {
		t.Fatalf("sqrt(81) ≈ %+v, want ≈ 9", v)
	}
}

func TestRuntimeColumnFilter(t *testing.T) {
	// The Figure-5 in-row column filter on the goroutine runtime.
	prog := compile(t, `
func main(n: int) {
	A = array(n, n);
	scale = 1.0;
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = scale * float(j);
		}
		next scale = scale + 1.0;
	}
}`)
	for _, pes := range []int{1, 3, 8} {
		_, rt := runRT(t, prog, pes, isa.Int(10))
		vals, mask, _, err := rt.ReadArray("A")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 10; i++ {
			for j := 1; j <= 10; j++ {
				off := (i-1)*10 + j - 1
				if !mask[off] || vals[off] != float64(i*j) {
					t.Fatalf("PEs=%d: A[%d,%d]=%v written=%v", pes, i, j, vals[off], mask[off])
				}
			}
		}
	}
}

// BenchmarkRuntimeSimple: one SIMPLE step at n=16 on 4 virtual PEs, the
// goroutine runtime end to end (one goroutine per SP, mailbox tokens, the
// shared store behind its mutexes).
func BenchmarkRuntimeSimple(b *testing.B) {
	const n = 16
	prog := compile(b, simple.Source)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt, err := podsrt.New(prog, podsrt.Config{VirtualPEs: 4, PageElems: 8})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rt.Run(context.Background(), isa.Int(n)); err != nil {
			b.Fatal(err)
		}
	}
}
