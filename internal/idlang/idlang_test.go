package idlang_test

import (
	"strings"
	"testing"

	"repro/internal/idlang"
	"repro/internal/isa"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/translate"
)

// run compiles source through the whole pipeline and simulates it.
func run(t *testing.T, src string, pes int, args ...isa.Value) (*sim.Result, *sim.Machine) {
	t.Helper()
	gp, err := idlang.Compile("test.id", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	if _, err := partition.Partition(prog, partition.Options{}); err != nil {
		t.Fatalf("partition: %v", err)
	}
	m, err := sim.New(prog, sim.Config{NumPEs: pes, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(args...)
	if err != nil {
		t.Fatalf("run (PEs=%d): %v", pes, err)
	}
	return res, m
}

func wantCompileError(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := idlang.Compile("test.id", src)
	if err == nil {
		t.Fatalf("expected compile error containing %q, got success", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("error %q does not contain %q", err, fragment)
	}
}

func TestScalarArithmetic(t *testing.T) {
	res, _ := run(t, `
func main() -> float {
	x = 3.0;
	y = x * x + 1.5;
	return sqrt(y) + float(2);
}`, 1)
	want := 3.2404 // sqrt(10.5) + 2 ≈ 5.2404... recompute below
	_ = want
	if res.MainValue == nil {
		t.Fatal("no result")
	}
	got := res.MainValue.F
	if got < 5.24 || got > 5.241 {
		t.Fatalf("result = %v, want ≈ 5.2404", got)
	}
}

func TestIntOpsAndMod(t *testing.T) {
	res, _ := run(t, `
func main(n: int) -> int {
	a = n / 3;
	b = n % 7;
	return a * 100 + b;
}`, 1, isa.Int(23))
	if res.MainValue == nil || res.MainValue.I != 702 {
		t.Fatalf("result = %+v, want 702", res.MainValue)
	}
}

func TestIfExpressionAndComparisons(t *testing.T) {
	res, _ := run(t, `
func main(n: int) -> int {
	v = if n > 10 && n != 12 then n * 2 else 0 - n;
	return v;
}`, 1, isa.Int(11))
	if res.MainValue == nil || res.MainValue.I != 22 {
		t.Fatalf("result = %+v, want 22", res.MainValue)
	}
	res2, _ := run(t, `
func main(n: int) -> int {
	v = if n > 10 && n != 12 then n * 2 else 0 - n;
	return v;
}`, 1, isa.Int(12))
	if res2.MainValue == nil || res2.MainValue.I != -12 {
		t.Fatalf("result = %+v, want -12", res2.MainValue)
	}
}

func TestIfExpressionPromotion(t *testing.T) {
	res, _ := run(t, `
func main(n: int) -> float {
	v = if n > 0 then 1 else 2.5;
	return v;
}`, 1, isa.Int(1))
	if res.MainValue == nil || res.MainValue.F != 1.0 || res.MainValue.Kind != "float" {
		t.Fatalf("result = %+v, want float 1.0", res.MainValue)
	}
}

func TestFunctionCall(t *testing.T) {
	res, _ := run(t, `
func sq(x: float) -> float {
	return x * x;
}
func main() -> float {
	return sq(3.0) + sq(4.0);
}`, 1)
	if res.MainValue == nil || res.MainValue.F != 25 {
		t.Fatalf("result = %+v, want 25", res.MainValue)
	}
}

func TestLoopCarriedSum(t *testing.T) {
	res, _ := run(t, `
func main(n: int) -> int {
	s = 0;
	for k = 1 to n {
		next s = s + k;
	}
	return s;
}`, 1, isa.Int(100))
	if res.MainValue == nil || res.MainValue.I != 5050 {
		t.Fatalf("sum = %+v, want 5050", res.MainValue)
	}
}

func TestDownToLoop(t *testing.T) {
	res, _ := run(t, `
func main(n: int) -> int {
	s = 0;
	last = 0;
	for k = n downto 1 {
		next s = s + k;
		next last = k;
	}
	return s * 10 + last;
}`, 1, isa.Int(4))
	if res.MainValue == nil || res.MainValue.I != 101 {
		t.Fatalf("result = %+v, want 101 (sum 10, last k = 1)", res.MainValue)
	}
}

func TestArrayFillDistributed(t *testing.T) {
	src := `
func main(n: int, m: int) {
	A = array(n, m);
	for i = 1 to n {
		for j = 1 to m {
			A[i, j] = float(i * 100 + j);
		}
	}
}`
	for _, pes := range []int{1, 4} {
		_, m := run(t, src, pes, isa.Int(8), isa.Int(8))
		vals, mask, _, err := m.ReadArray("A")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 8; i++ {
			for j := 1; j <= 8; j++ {
				off := (i-1)*8 + j - 1
				if !mask[off] {
					t.Fatalf("PEs=%d: A[%d,%d] unwritten", pes, i, j)
				}
				if want := float64(i*100 + j); vals[off] != want {
					t.Fatalf("PEs=%d: A[%d,%d]=%v want %v", pes, i, j, vals[off], want)
				}
			}
		}
	}
}

func TestMatmulSource(t *testing.T) {
	src := `
func main(n: int) {
	A = array(n, n);
	B = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i + j);
			B[i, j] = float(i - j);
		}
	}
	C = array(n, n);
	for i2 = 1 to n {
		for j2 = 1 to n {
			s = 0.0;
			for k = 1 to n {
				next s = s + A[i2, k] * B[k, j2];
			}
			C[i2, j2] = s;
		}
	}
}`
	const n = 6
	for _, pes := range []int{1, 3} {
		_, m := run(t, src, pes, isa.Int(n))
		vals, mask, _, err := m.ReadArray("C")
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				want := 0.0
				for k := 1; k <= n; k++ {
					want += float64(i+k) * float64(k-j)
				}
				off := (i-1)*n + j - 1
				if !mask[off] {
					t.Fatalf("PEs=%d: C[%d,%d] unwritten", pes, i, j)
				}
				if vals[off] != want {
					t.Fatalf("PEs=%d: C[%d,%d]=%v want %v", pes, i, j, vals[off], want)
				}
			}
		}
	}
}

func TestSweepWithLCDStaysCorrect(t *testing.T) {
	// Forward sweep: V[i] = V[i-1] + 1 with V[1] = 1; LCD at i.
	src := `
func main(n: int) {
	V = array(n);
	V[1] = 1.0;
	for i = 2 to n {
		V[i] = V[i - 1] + 1.0;
	}
}`
	gp, err := idlang.Compile("test.id", src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := partition.Partition(prog, partition.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Distributed) != 0 {
		t.Fatalf("sweep loop must not be distributed:\n%s", rep)
	}
	if len(rep.Serial) != 1 {
		t.Fatalf("sweep loop should be reported serial:\n%s", rep)
	}
	m, err := sim.New(prog, sim.Config{NumPEs: 4, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(isa.Int(32)); err != nil {
		t.Fatal(err)
	}
	vals, _, _, _ := m.ReadArray("V")
	for i := 0; i < 32; i++ {
		if vals[i] != float64(i+1) {
			t.Fatalf("V[%d]=%v want %v", i+1, vals[i], i+1)
		}
	}
}

func TestIfStatementConditionalWrite(t *testing.T) {
	src := `
func main(n: int) {
	A = array(n);
	for i = 1 to n {
		if i % 2 == 0 {
			A[i] = 2.0;
		} else {
			A[i] = 1.0;
		}
	}
}`
	_, m := run(t, src, 2, isa.Int(10))
	vals, _, _, _ := m.ReadArray("A")
	for i := 1; i <= 10; i++ {
		want := 1.0
		if i%2 == 0 {
			want = 2.0
		}
		if vals[i-1] != want {
			t.Fatalf("A[%d]=%v want %v", i, vals[i-1], want)
		}
	}
}

func TestVoidFunctionFillsArray(t *testing.T) {
	src := `
func fill(A: array1, n: int, base: float) {
	for i = 1 to n {
		A[i] = base + float(i);
	}
}
func main(n: int) {
	A = array(n);
	fill(A, n, 10.0);
}`
	_, m := run(t, src, 2, isa.Int(12))
	vals, mask, _, _ := m.ReadArray("A")
	for i := 1; i <= 12; i++ {
		if !mask[i-1] || vals[i-1] != 10+float64(i) {
			t.Fatalf("A[%d]=%v (written=%v) want %v", i, vals[i-1], mask[i-1], 10+float64(i))
		}
	}
}

func TestDeterminacyAcrossPECounts(t *testing.T) {
	// Church-Rosser: same values regardless of PE count / scheduling.
	src := `
func main(n: int) {
	A = array(n, n);
	B = array(n, n);
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = float(i) * 1.5 + float(j);
		}
	}
	for i2 = 1 to n {
		for j2 = 1 to n {
			B[i2, j2] = A[i2, j2] * 2.0;
		}
	}
}`
	var ref []float64
	for _, pes := range []int{1, 2, 4, 8} {
		_, m := run(t, src, pes, isa.Int(10))
		vals, _, _, _ := m.ReadArray("B")
		if ref == nil {
			ref = vals
			continue
		}
		for i := range vals {
			if vals[i] != ref[i] {
				t.Fatalf("PEs=%d: B[%d]=%v differs from 1-PE run %v", pes, i, vals[i], ref[i])
			}
		}
	}
}

func TestErrorMessages(t *testing.T) {
	wantCompileError(t, `func main() { x = 1; x = 2; }`, "already bound")
	wantCompileError(t, `func main() { return 1; }`, "void function")
	wantCompileError(t, `func f() -> int { return 1; } func main() { f(); }`, "discarded")
	wantCompileError(t, `func main() { y = x + 1; }`, "undefined name")
	wantCompileError(t, `func main() { A = array(2); A[1, 2] = 1.0; }`, "1 dimension")
	wantCompileError(t, `func main() { next s = 1; }`, "only allowed at the top level of a loop")
	wantCompileError(t, `func main() { s = 1; for i = 1 to 2 { if true { next s = 1; } } }`, "top level of a loop")
	wantCompileError(t, `func main() { for i = 1 to 2 { i = 3; } }`, "already bound")
	wantCompileError(t, `func main() { x = 1.5 % 2.0; }`, "needs int operands")
	wantCompileError(t, `func main() { b = true + 1; }`, "needs numeric operands")
	wantCompileError(t, `func main() -> int { }`, "must end with a return")
	wantCompileError(t, `func f(x: int) -> int { return x; }`, "no main function")
	wantCompileError(t, `func main() { x = array(2) + 1; }`, "only appear directly in a binding")
}

func TestSiblingLoopsMayReuseVarNames(t *testing.T) {
	// Two sequential loops can both use "i" — shadowing is only rejected
	// along a single scope chain.
	res, _ := run(t, `
func main(n: int) -> int {
	a = 0;
	for i = 1 to n {
		next a = a + i;
	}
	b = 0;
	for i = 1 to n {
		next b = b + i * 2;
	}
	return a + b;
}`, 1, isa.Int(10))
	if res.MainValue == nil || res.MainValue.I != 165 {
		t.Fatalf("result = %+v, want 165", res.MainValue)
	}
}

func TestParseErrorsHavePositions(t *testing.T) {
	_, err := idlang.Compile("demo.id", "func main( {")
	if err == nil || !strings.Contains(err.Error(), "demo.id:1:") {
		t.Fatalf("parse error should carry file:line: %v", err)
	}
}

func TestLexerRejectsBadChar(t *testing.T) {
	_, err := idlang.Compile("x.id", "func main() { a = 1 $ 2; }")
	if err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatalf("err = %v", err)
	}
}

func TestCommentsAndFloats(t *testing.T) {
	res, _ := run(t, `
# leading comment
func main() -> float {
	a = 1.5e2;   # 150
	b = 2.5;
	return a / b;  # 60
}`, 1)
	if res.MainValue == nil || res.MainValue.F != 60 {
		t.Fatalf("result = %+v, want 60", res.MainValue)
	}
}

func TestWhileLoopNewton(t *testing.T) {
	// Newton iteration for sqrt(c), starting at g = c ≥ 1.
	res, _ := run(t, `
func main(x: int) -> float {
	c = float(x);
	g = c;
	while g * g - c > 0.000001 {
		next g = 0.5 * (g + c / g);
	}
	return g;
}`, 1, isa.Int(49))
	if res.MainValue == nil {
		t.Fatal("no result")
	}
	if got := res.MainValue.F; got < 6.999999 || got > 7.000001 {
		t.Fatalf("sqrt(49) ≈ %v, want ≈ 7", got)
	}
}

func TestWhileLoopCollatzSteps(t *testing.T) {
	res, _ := run(t, `
func main(x: int) -> int {
	v = x;
	steps = 0;
	while v != 1 {
		next v = if v % 2 == 0 then v / 2 else 3 * v + 1;
		next steps = steps + 1;
	}
	return steps;
}`, 1, isa.Int(27))
	if res.MainValue == nil || res.MainValue.I != 111 {
		t.Fatalf("collatz(27) = %+v, want 111 steps", res.MainValue)
	}
}

func TestWhileZeroIterations(t *testing.T) {
	res, _ := run(t, `
func main() -> int {
	v = 10;
	while v < 10 {
		next v = v + 1;
	}
	return v;
}`, 1)
	if res.MainValue == nil || res.MainValue.I != 10 {
		t.Fatalf("result = %+v, want 10 (condition false at entry)", res.MainValue)
	}
}

func TestWhileInsideForWritesArray(t *testing.T) {
	// Integer log2 per element via a while loop nested in a distributed
	// for loop: while loops stay local, the for loop distributes.
	src := `
func main(n: int) {
	A = array(n);
	for i = 1 to n {
		v = i;
		steps = 0;
		while v > 1 {
			next v = v / 2;
			next steps = steps + 1;
		}
		A[i] = float(steps);
	}
}`
	for _, pes := range []int{1, 4} {
		_, m := run(t, src, pes, isa.Int(16))
		vals, mask, _, _ := m.ReadArray("A")
		for i := 1; i <= 16; i++ {
			want := 0
			for v := i; v > 1; v /= 2 {
				want++
			}
			if !mask[i-1] || vals[i-1] != float64(want) {
				t.Fatalf("PEs=%d: A[%d]=%v written=%v, want %d", pes, i, vals[i-1], mask[i-1], want)
			}
		}
	}
}

func TestWhileNeverDistributed(t *testing.T) {
	gp, err := idlang.Compile("w.id", `
func main(n: int) {
	A = array(n);
	k = 1;
	while k <= n {
		A[k] = float(k);
		next k = k + 1;
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := translate.Translate(gp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Partition(prog, partition.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, tm := range prog.Templates {
		if tm.Loop != nil && tm.Loop.IsWhile {
			if tm.Distributed {
				t.Fatal("while loop must never be distributed")
			}
			if !tm.Loop.HasLCD {
				t.Fatal("while loop must be conservatively carried")
			}
		}
	}
	m, err := sim.New(prog, sim.Config{NumPEs: 4, PageElems: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(isa.Int(20)); err != nil {
		t.Fatal(err)
	}
	vals, mask, _, _ := m.ReadArray("A")
	for i := 0; i < 20; i++ {
		if !mask[i] || vals[i] != float64(i+1) {
			t.Fatalf("A[%d]=%v written=%v", i+1, vals[i], mask[i])
		}
	}
}

func TestWhileConditionMustBeBool(t *testing.T) {
	wantCompileError(t, `func main() { v = 1; while v { next v = v - 1; } }`, "must be bool")
}

func TestDistributedTemplateReusedAcrossCalls(t *testing.T) {
	// One distributed fill template is LD-spawned twice with different
	// array bindings — both invocations must partition and run correctly.
	src := `
func fill(A: array2, n: int, base: float) {
	for i = 1 to n {
		for j = 1 to n {
			A[i, j] = base + float(i * 100 + j);
		}
	}
}
func main(n: int) {
	X = array(n, n);
	Y = array(n, n);
	fill(X, n, 0.0);
	fill(Y, n, 0.5);
}`
	for _, pes := range []int{1, 4} {
		_, m := run(t, src, pes, isa.Int(8))
		for arr, base := range map[string]float64{"X": 0, "Y": 0.5} {
			vals, mask, _, err := m.ReadArray(arr)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 8; i++ {
				for j := 1; j <= 8; j++ {
					off := (i-1)*8 + j - 1
					if !mask[off] || vals[off] != base+float64(i*100+j) {
						t.Fatalf("PEs=%d: %s[%d,%d]=%v written=%v", pes, arr, i, j, vals[off], mask[off])
					}
				}
			}
		}
	}
}

func TestTriangularLoop(t *testing.T) {
	// Inner bound depends on the outer variable; the RF clamp composes
	// with the data-dependent limit.
	src := `
func main(n: int) {
	A = array(n, n);
	for i = 1 to n {
		for j = 1 to i {
			A[i, j] = float(i * 10 + j);
		}
	}
}`
	for _, pes := range []int{1, 4} {
		_, m := run(t, src, pes, isa.Int(10))
		vals, mask, _, _ := m.ReadArray("A")
		for i := 1; i <= 10; i++ {
			for j := 1; j <= 10; j++ {
				off := (i-1)*10 + j - 1
				if j <= i {
					if !mask[off] || vals[off] != float64(i*10+j) {
						t.Fatalf("PEs=%d: A[%d,%d]=%v written=%v", pes, i, j, vals[off], mask[off])
					}
				} else if mask[off] {
					t.Fatalf("PEs=%d: A[%d,%d] written outside triangle", pes, i, j)
				}
			}
		}
	}
}

func TestEmptyLoopRange(t *testing.T) {
	res, _ := run(t, `
func main() -> int {
	s = 100;
	for k = 5 to 1 {
		next s = s + k;
	}
	return s;
}`, 1)
	if res.MainValue == nil || res.MainValue.I != 100 {
		t.Fatalf("empty ascending range: %+v, want 100", res.MainValue)
	}
}

func TestIfBranchBindingsDoNotLeak(t *testing.T) {
	wantCompileError(t, `
func main(n: int) -> int {
	if n > 0 {
		x = 1;
	}
	return x;
}`, "undefined name")
}

func TestIfBranchBindingsAreBranchLocal(t *testing.T) {
	// The same name may be bound in both branches without conflict.
	res, _ := run(t, `
func main(n: int) {
	A = array(4);
	if n > 0 {
		v = 1.0;
		A[1] = v;
	} else {
		v = 2.0;
		A[1] = v;
	}
}`, 1, isa.Int(5))
	_ = res
}

func TestCarriedLoopInsideIfRejected(t *testing.T) {
	wantCompileError(t, `
func main(n: int) -> int {
	s = 0;
	if n > 0 {
		for k = 1 to n {
			next s = s + k;
		}
	}
	return s;
}`, "cannot appear inside an if branch")
}

func TestInnerLoopUpdateNeedsNextAtOuterLevel(t *testing.T) {
	wantCompileError(t, `
func main(n: int) -> int {
	s = 0;
	for i = 1 to n {
		for k = 1 to n {
			next s = s + k;
		}
	}
	return s;
}`, "not declared `next s`")
}

func TestNestedAccumulationIdiom(t *testing.T) {
	// The documented idiom: re-declare `next s = s;` at the outer level.
	res, _ := run(t, `
func main(n: int) -> int {
	s = 0;
	for i = 1 to n {
		for k = 1 to n {
			next s = s + 1;
		}
		next s = s;
	}
	return s;
}`, 1, isa.Int(5))
	if res.MainValue == nil || res.MainValue.I != 25 {
		t.Fatalf("result %+v, want 25", res.MainValue)
	}
}
