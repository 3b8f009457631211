package translate_test

import (
	"strings"
	"testing"

	"repro/internal/idlang"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/translate"
)

func compileSrc(t *testing.T, src string) *isa.Program {
	t.Helper()
	gp, err := idlang.Compile("x.id", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestFunctionTemplatesHaveContinuationParams(t *testing.T) {
	prog := compileSrc(t, `
func f(x: float) -> float { return x + 1.0; }
func main() -> float { return f(f(2.0)); }
`)
	var f *isa.Template
	for _, tm := range prog.Templates {
		if tm.Name == "f" {
			f = tm
		}
	}
	if f == nil {
		t.Fatal("no template for f")
	}
	if !f.HasResult || f.NResults != 1 {
		t.Fatalf("f: HasResult=%v NResults=%d", f.HasResult, f.NResults)
	}
	// Declared param (x) plus retRef and retBase.
	if f.NParams != 3 {
		t.Fatalf("f.NParams = %d, want 3 (x + continuation pair)", f.NParams)
	}
	// The body must end with SEND then HALT.
	n := len(f.Code)
	if f.Code[n-1].Op != isa.HALT || f.Code[n-2].Op != isa.SEND {
		t.Fatalf("f epilogue:\n%s", f.Listing())
	}
}

func TestNestedCallsExecute(t *testing.T) {
	prog := compileSrc(t, `
func f(x: float) -> float { return x + 1.0; }
func g(x: float) -> float { return f(x) * 2.0; }
func main() -> float { return g(f(1.0)); }
`)
	m, err := sim.New(prog, sim.Config{NumPEs: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	// g(f(1)) = g(2) = (2+1)*2 = 6.
	if res.MainValue == nil || res.MainValue.F != 6 {
		t.Fatalf("result %+v, want 6", res.MainValue)
	}
}

func TestUnconsumedLoopResultsNotSent(t *testing.T) {
	// The carried scalar's final value is never used: the loop template
	// must not SEND it and the parent must not pass a continuation.
	prog := compileSrc(t, `
func main(n: int) {
	A = array(n);
	s = 0;
	for i = 1 to n {
		next s = s + i;
		A[i] = float(i);
	}
}`)
	var loop *isa.Template
	for _, tm := range prog.Templates {
		if tm.Kind == isa.TmplLoop {
			loop = tm
		}
	}
	if loop == nil {
		t.Fatal("no loop template")
	}
	if loop.HasResult || loop.NResults != 0 {
		t.Fatalf("unconsumed results should be stripped: HasResult=%v NResults=%d", loop.HasResult, loop.NResults)
	}
	for _, in := range loop.Code {
		if in.Op == isa.SEND {
			t.Fatalf("unconsumed carried scalar is SENT:\n%s", loop.Listing())
		}
	}
	// And the program must still run (the dead-SP token bug regression).
	if _, err := partition.Partition(prog, partition.Options{}); err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(prog, sim.Config{NumPEs: 2, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(isa.Int(12)); err != nil {
		t.Fatal(err)
	}
}

func TestPartiallyConsumedLoopResults(t *testing.T) {
	// Two carried scalars; only one final value is used.
	prog := compileSrc(t, `
func main(n: int) -> int {
	a = 0;
	b = 0;
	for i = 1 to n {
		next a = a + i;
		next b = b + 2 * i;
	}
	return b;
}`)
	var loop *isa.Template
	for _, tm := range prog.Templates {
		if tm.Kind == isa.TmplLoop {
			loop = tm
		}
	}
	sends := 0
	for _, in := range loop.Code {
		if in.Op == isa.SEND {
			sends++
		}
	}
	if sends != 1 {
		t.Fatalf("sends = %d, want 1 (only b is consumed)\n%s", sends, loop.Listing())
	}
	m, err := sim.New(prog, sim.Config{NumPEs: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(isa.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if res.MainValue == nil || res.MainValue.I != 110 {
		t.Fatalf("result %+v, want 110", res.MainValue)
	}
}

func TestListingReadable(t *testing.T) {
	prog := compileSrc(t, `
func main(n: int) {
	A = array(n);
	for i = 1 to n {
		A[i] = float(i);
	}
}`)
	l := prog.Listing()
	for _, want := range []string{"main", "ALLOC", "SPAWN", "loop", "AWRITE", "HALT", "i = init"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}

func TestLoopTemplateNamesExposed(t *testing.T) {
	prog := compileSrc(t, `
func main(n: int) {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i + j);
		}
	}
}`)
	for _, tm := range prog.Templates {
		if tm.Loop == nil || tm.Loop.Var != "j" {
			continue
		}
		if _, ok := tm.Names["A"]; !ok {
			t.Error("inner loop should expose A")
		}
		if _, ok := tm.Names["i"]; !ok {
			t.Error("inner loop should expose the imported i")
		}
		if tm.Names["j"] != tm.Loop.VarSlot {
			t.Error("loop variable slot mapping")
		}
	}
}
